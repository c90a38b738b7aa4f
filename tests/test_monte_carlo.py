"""The batched Monte Carlo kernels against the per-trial code they replaced.

Price paths must be bit-identical to the scalar AR recursion, and every
trial's verdict pair equal to the per-trial oracle, for any batch size
and trial count.  A warning inside a kernel is an error here:
a diverged trial left in the stack would turn ``inf * 0`` into a NaN.
"""

import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from konus import (
    ARModel,
    TradeDataError,
    check_harp,
    cobb_douglas_statistics,
    cross_value_matrix,
    fit_price_models,
    forecast_size_paired,
    power_estimate,
    random_group_probability,
    random_statistics,
    simulate_price_paths,
    trade_statistics,
)
from konus import econometrics, forecast
from konus.semiring import FLOAT_SLACK, _relax, boolean_closure, maxtimes_closure
from konus._mc import trial_rng
from konus.axioms import _verdicts
from konus.econometrics import _group_batch, _power_batch, _sampled_group, _simulate_stack
from konus.forecast import _size_batch

from conftest import (
    batches_of,
    closure_by_outer,
    group_verdicts,
    near_homothetic_panel,
    power_trial,
    simulate_price_paths_by_loop,
    size_trial,
    verdicts_by_trial,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Trials per batch: 1, 2, odd sizes, and None for the byte budget's own size.
BATCHES = st.sampled_from([1, 2, 3, 5, None])
ELEMENTS = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 4.0)
# arrays draw every element (fill=st.nothing()): a fill value would leave them nearly constant


def rows(pairs):
    return [(bool(a), bool(b)) for a, b in pairs]


@st.composite
def mc_panels(draw, min_periods=1, max_periods=7, max_goods=5):
    """Panels from the library's generators, some with a period repeated as is or rescaled."""
    T = draw(st.integers(min_periods, max_periods))
    m = draw(st.integers(1, max_goods))
    seed = draw(st.integers(0, 2 ** 16))
    kind = draw(st.sampled_from(["cobb_douglas", "random", "near_homothetic"]))
    if kind == "cobb_douglas":
        ts = cobb_douglas_statistics(T, m, seed)
    elif kind == "random":
        ts = random_statistics(T, m, seed)
    else:
        ts = near_homothetic_panel(np.random.default_rng(seed), T, m)
    if T > 1 and draw(st.booleans()):
        source, target = draw(st.permutations(range(T)))[:2]
        prices, quantities = np.array(ts.prices), np.array(ts.quantities)
        prices[target] = prices[source]
        quantities[target] = quantities[source] * draw(st.sampled_from([1.0, 0.5, 3.0]))
        ts = trade_statistics(prices, quantities)
    return ts


@st.composite
def px_stacks(draw):
    """Stacks of 1..7 cross-value matrices of one order T in 1..8.

    Trials may repeat a period as is or rescaled, buy a single good, or
    carry the two-period cycle of product 1.25 on periods 0 and 1, which
    makes the homotheticity closure diverge at pivot 0; in some stacks
    every trial carries it.
    """
    T = draw(st.integers(1, 8))
    planted = draw(st.sampled_from(["none", "some", "all"])) if T > 1 else "none"
    stack = []
    for _ in range(draw(st.integers(1, 7))):
        m = draw(st.integers(2, 4)) if planted != "none" else draw(st.integers(1, 4))
        prices = draw(arrays(float, (T, m), elements=ELEMENTS, fill=st.nothing()))
        quantities = draw(arrays(float, (T, m), elements=ELEMENTS, fill=st.nothing()))
        if T > 1 and draw(st.booleans()):
            source, target = draw(st.permutations(range(T)))[:2]
            prices[target] = prices[source]
            quantities[target] = quantities[source] * draw(st.sampled_from([1.0, 0.5, 3.0]))
        if planted == "all" or (planted == "some" and draw(st.booleans())):
            prices[:2] = 1.0
            prices[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
            quantities[:2] = 0.0
            quantities[:2, :2] = [[1.0, 1.0], [2.0, 1.0]]
        stack.append(prices @ quantities.T)
    return np.array(stack)


@given(px_stacks(), st.sampled_from([(1.0, 0.0), (0.9, 0.0), (1.1, 1e-3)]))
def test_stacked_verdicts_match_per_trial_oracle(stack, level):
    omega, tol = level
    before = stack.copy()
    expected = [verdicts_by_trial(px, omega, tol) for px in stack]
    assert rows(zip(*_verdicts(stack, omega, tol))) == expected
    np.testing.assert_array_equal(stack, before)  # the caller's stack is left alone
    assert rows(zip(*_verdicts(np.asfortranarray(stack), omega, tol))) == expected  # any memory layout


@given(st.integers(1, 7), st.integers(1, 8), st.data())
def test_stacked_closures_match_per_matrix_oracles(trials, order, data):
    relations = data.draw(arrays(bool, (trials, order, order), fill=st.nothing()))
    expected = []
    for rel in relations:
        closure = rel.copy()
        for k in range(order):
            closure |= np.outer(closure[:, k], closure[k, :])
        expected.append(closure)
    np.testing.assert_array_equal(boolean_closure(relations), np.array(expected))
    # max-times: zero entries, and diagonals above one before any pivot
    elements = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 1.5)
    matrices = data.draw(arrays(float, (trials, order, order), elements=elements, fill=st.nothing()))
    expected = [not closure_by_outer(matrix)[1] for matrix in matrices]
    assert (~_relax(matrices.copy(), 1.0 + FLOAT_SLACK)).tolist() == expected  # the stacked pivot loop
    assert [maxtimes_closure(matrix) is not None for matrix in matrices] == expected


def test_stack_where_every_trial_diverges_at_pivot_zero():
    px = np.array([[3.0, 3.0], [4.0, 5.0]])  # the two-period panel: cycle product 1.25
    garp_ok, harp_ok = _verdicts(np.array([px, px * 2.0, px]))
    assert not harp_ok.any() and not garp_ok.any()
    assert [verdicts_by_trial(p) for p in (px, px * 2.0)] == [(False, False)] * 2


@st.composite
def ar_panels(draw):
    """A panel with hand-built AR models whose orders 0..2 mix freely (order <= T - 2)."""
    T = draw(st.integers(3, 9))
    m = draw(st.integers(1, 6))
    orders = draw(st.lists(st.integers(0, min(2, T - 2)), min_size=m, max_size=m))
    models = []
    for r in orders:
        beta = np.array(draw(st.lists(st.floats(-0.9, 0.9), min_size=r + 1, max_size=r + 1)))
        sigma2 = draw(st.sampled_from([1e-12, 1e-4, 0.01, 0.09]))
        models.append(ARModel(order=r, beta=beta, sigma2=sigma2, stderr=np.zeros(r + 1)))
    ts = random_statistics(T, m, draw(st.integers(0, 2 ** 16)))
    return ts, models


@given(ar_panels(), st.integers(1, 9), st.integers(0, 1000))
@example((random_statistics(3, 1, 0), [ARModel(1, np.array([0.01, 0.5]), 0.01, np.zeros(2))]), 1, 0)
@example((random_statistics(6, 6, 1),
          [ARModel(r, np.linspace(0.1, 0.3, r + 1), 0.01, np.zeros(r + 1)) for r in (0, 1, 2, 2, 1, 0)]), 4, 7)
def test_simulated_stack_matches_scalar_recursion_bitwise(panel, trials, seed):
    ts, models = panel
    stack = _simulate_stack(ts, models, [trial_rng(seed, b) for b in range(trials)])
    assert stack.flags.c_contiguous
    for b in range(trials):
        assert stack[b].tobytes() == simulate_price_paths_by_loop(ts, models, trial_rng(seed, b)).tobytes()
    # the public stack of one draws the same numbers and leaves the generator in the same state
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert simulate_price_paths(ts, models, rng).tobytes() == \
        simulate_price_paths_by_loop(ts, models, oracle_rng).tobytes()
    assert rng.random() == oracle_rng.random()


def test_fitted_models_mix_orders_on_the_benchmark_panel_shape():
    ts = cobb_douglas_statistics(27, 106, seed=5)
    models = fit_price_models(ts)
    assert {model.order for model in models} == {0, 1, 2}
    stack = _simulate_stack(ts, models, [trial_rng(3, b) for b in range(5)])
    for b in range(5):
        assert stack[b].tobytes() == simulate_price_paths_by_loop(ts, models, trial_rng(3, b)).tobytes()


@given(mc_panels(), BATCHES, st.integers(1, 13), st.integers(0, 100))
@example(cobb_douglas_statistics(3, 1, 0), 2, 7, 0)
@example(random_statistics(4, 3, 2), 3, 10, 5)
def test_size_trials_match_per_trial_oracle(ts, batch, trials, seed):
    base_px = cross_value_matrix(ts)
    expected = [size_trial(ts, base_px, seed, b) for b in range(trials)]
    assert rows(_size_batch(ts, base_px, seed, range(trials))) == expected
    with batches_of(batch):
        garp, harp = forecast_size_paired(ts, trials, seed)
    assert (garp.hits, harp.hits) == tuple(sum(column) for column in zip(*expected))


@given(mc_panels(min_periods=3), BATCHES, st.integers(1, 13), st.integers(0, 100))
@example(cobb_douglas_statistics(3, 1, 0), 1, 5, 0)
@example(random_statistics(5, 3, 2), 5, 11, 4)
def test_power_trials_match_per_trial_oracle(ts, batch, trials, seed):
    models = fit_price_models(ts)
    expected = [power_trial(ts, models, seed, b) for b in range(trials)]
    assert rows(_power_batch(ts, models, seed, range(trials))) == expected
    with batches_of(batch):
        report = power_estimate(ts, trials, seed)
    assert (report.garp_rejections, report.harp_rejections) == tuple(sum(column) for column in zip(*expected))


@given(mc_panels(min_periods=2, max_goods=7), BATCHES, st.integers(0, 100))
def test_group_trials_match_per_trial_oracle(ts, batch, seed):
    samples = 9
    sizes = sorted({2, ts.num_goods}) if ts.num_goods >= 2 else []
    with batches_of(batch):
        curve = random_group_probability(ts, sizes, samples, seed)
    for size, p_garp, p_harp in zip(sizes, curve.p_garp, curve.p_harp):
        if math.comb(ts.num_goods, size) <= samples:
            groups = [np.array(c) for c in combinations(range(ts.num_goods), size)]
        else:
            groups = [_sampled_group(ts, size, seed, j, 1000)[0] for j in range(samples)]
        expected = [group_verdicts(ts, g) for g in groups]
        assert rows(_group_batch(ts, groups)) == expected
        assert (p_garp, p_harp) == tuple(sum(column) / len(expected) for column in zip(*expected))


def test_each_experiment_enforces_its_own_implication():
    # a verdict pair that fails acyclicity but passes homotheticity, as rounding at
    # the cycle-product boundary can give: power counts both rejections, size and
    # groups count both passes
    def split(px, omega=1.0, tol=0.0):
        return np.zeros(len(px), dtype=bool), np.ones(len(px), dtype=bool)

    ts = cobb_douglas_statistics(5, 3, seed=2)
    with mock.patch.object(econometrics, "_verdicts", split), mock.patch.object(forecast, "_verdicts", split):
        assert rows(_power_batch(ts, fit_price_models(ts), 1, range(3))) == [(True, True)] * 3
        assert rows(_size_batch(ts, cross_value_matrix(ts), 1, range(3))) == [(True, True)] * 3
        assert rows(_group_batch(ts, [np.array([0, 1])])) == [(True, True)]
    px = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])  # a GARP violation whose cycle product is 1 + 1e-13
    assert rows(zip(*_verdicts(px[np.newaxis]))) == [verdicts_by_trial(px)] == [(False, True)]


def _error(call):
    try:
        call()
    except (TradeDataError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def test_overflowing_paasche_entries_raise_the_oracle_error():
    # px[0, 0] overflows to inf, so its Paasche column is inf / inf = NaN
    nan_px = np.array([[np.inf, 1e300], [1e10, 2.0]])
    # px[1, 1] / px[0, 1] overflows to inf, which paasche_matrix refuses as not finite
    inf_px = np.array([[1.0, 1e-10], [1.0, 1e300]])
    finite_px = np.array([[1.0, 2.0], [2.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in (nan_px, inf_px):
            expected = _error(lambda: verdicts_by_trial(bad))
            assert expected is not None
            for stack in ([bad], [finite_px, bad], [finite_px, bad, finite_px]):
                assert _error(lambda: _verdicts(np.array(stack))) == expected
        assert _error(lambda: verdicts_by_trial(nan_px))[0] is TradeDataError
        # through the experiments: the trial panels inherit the overflowing base period
        ts = trade_statistics([[1e300, 1.0], [1.0, 1.0], [1.0, 1.0]], [[1e10, 1.0], [1.0, 1.0], [1.0, 1.0]])
        base_px = cross_value_matrix(ts)
        expected = _error(lambda: size_trial(ts, base_px, 1, 0))
        assert expected == (TradeDataError, "Paasche matrix must be strictly positive")
        assert _error(lambda: forecast_size_paired(ts, 5, 1)) == expected
        assert _error(lambda: random_group_probability(ts, [2], 5, 1)) == \
            _error(lambda: group_verdicts(ts, np.array([0, 1])))


def test_overflowing_scaled_paasche_raises_the_oracle_error():
    # C[0, 1] = 1e7 / 1e-300 is finite, but dividing it by omega = 0.01 overflows
    px = np.array([[1.0, 1e-300], [1.0, 1e7]])
    with np.errstate(over="ignore"):
        expected = _error(lambda: verdicts_by_trial(px, 0.01))
        assert expected == (ValueError, "matrix must be finite")
        assert _error(lambda: _verdicts(np.array([px, px]), 0.01)) == expected
        assert _error(lambda: check_harp(trade_statistics(px, np.eye(2)), 0.01)) == expected


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("experiment", [power_estimate, forecast_size_paired])
def test_batch_budget_not_trial_count_bounds_memory(experiment):
    # a T=27, m=106 panel, the benchmark's larger one; a warm-up run first
    # fills the interpreter's free lists, so both peaks start from the same state
    ts = cobb_douglas_statistics(27, 106, seed=1)
    experiment(ts, 2000, 4)
    small = _traced_peak(lambda: experiment(ts, 200, 3))
    large = _traced_peak(lambda: experiment(ts, 2000, 3))
    assert large <= 1.05 * small
