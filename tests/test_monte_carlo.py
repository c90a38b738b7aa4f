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
    check_garp,
    check_harp,
    cobb_douglas_statistics,
    cross_value_matrix,
    fit_price_models,
    forecast_size_paired,
    paasche_matrix,
    power_estimate,
    random_group_probability,
    random_statistics,
    rescale_quantities,
    sample_positive_sphere,
    simulate_price_paths,
    trade_statistics,
)
from konus import econometrics, forecast
from konus.semiring import FLOAT_SLACK, _relax, boolean_closure, maxtimes_closure
from konus.axioms import _inserted_verdicts, _insertion_base, _verdicts
from konus._mc import batch_size, trial_streams
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


@given(px_stacks())
def test_stacked_verdicts_match_per_trial_oracle(stack):
    before = stack.copy()
    expected = [verdicts_by_trial(px) for px in stack]
    assert rows(zip(*_verdicts(stack))) == expected
    np.testing.assert_array_equal(stack, before)  # the caller's stack is left alone
    assert rows(zip(*_verdicts(np.asfortranarray(stack)))) == expected  # any memory layout


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


@st.composite
def bordered_stacks(draw):
    """Stacks of 1..6 cross-value matrices of order 1..7 that differ only in their last rows.

    Entries come mostly from a few values, so comparisons tie and cycle
    products come out exactly one far more often than on panels.
    """
    T = draw(st.integers(1, 7))
    elements = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 4.0)
    base = draw(arrays(float, (T, T), elements=elements, fill=st.nothing()))
    stack = np.repeat(base[np.newaxis], draw(st.integers(1, 6)), axis=0)
    stack[:, -1] = draw(arrays(float, stack.shape[:2], elements=elements, fill=st.nothing()))
    return stack


def _ulps_from(value, steps):
    """The float ``steps`` ulp above ``value`` (below it for negative ``steps``)."""
    for _ in range(abs(steps)):
        value = np.nextafter(value, np.inf if steps > 0 else -np.inf)
    return value


# The largest cycle product through the new period whose square passes the threshold: the tie
# of the size trials' price cone, which squares its product as the closure's last pivot does.
ROOT_OF_THRESHOLD = float(np.sqrt(1.0 + FLOAT_SLACK))
while ROOT_OF_THRESHOLD * ROOT_OF_THRESHOLD > 1.0 + FLOAT_SLACK:
    ROOT_OF_THRESHOLD = _ulps_from(ROOT_OF_THRESHOLD, -1)
while _ulps_from(ROOT_OF_THRESHOLD, 1) ** 2 <= 1.0 + FLOAT_SLACK:
    ROOT_OF_THRESHOLD = _ulps_from(ROOT_OF_THRESHOLD, 1)


def _last_period_cycles(*products):
    """Trials of two periods whose one cycle, through the last period, has the given products."""
    return np.array([[[1.0, 1.0], [1.0, product]] for product in products])


@given(bordered_stacks())
# in the first trial the only violating pair is (0, 1), joined through the last period by
# two tied links; the second trial's last period links to no period and passes acyclicity
@example(np.array([[[1.0, 2.0, 1.0], [1.0, 2.0, 2.0], [2.0, 1.0, 1.0]],
                   [[1.0, 2.0, 1.0], [1.0, 2.0, 2.0], [3.0, 3.0, 1.0]]]))
# a 2-cycle of product 1 + 7e-13, below the threshold, whose square at the last pivot is above it
@example(np.array([[[1.0, 1.0], [1.0, 1.0 + 7e-13]]]))
# products whose square is just below the threshold (1 + 4e-13 and up to the tie), then above it
@example(_last_period_cycles(1.0 + 4e-13, *(_ulps_from(ROOT_OF_THRESHOLD, -k) for k in (3, 1, 0)),
                             *(_ulps_from(ROOT_OF_THRESHOLD, k) for k in (1, 3))))
def test_inserted_verdicts_match_the_stacked_kernel(stack):
    base = _insertion_base(stack[0])
    assert rows(zip(*_inserted_verdicts(base, stack[:, -1]))) == rows(zip(*_verdicts(stack)))


def test_the_cone_tie_falls_where_the_closure_squares():
    stack = _last_period_cycles(ROOT_OF_THRESHOLD, _ulps_from(ROOT_OF_THRESHOLD, 1), 1.0 + 4e-13)
    assert _inserted_verdicts(_insertion_base(stack[0]), stack[:, -1])[1].tolist() == [True, False, True]
    assert _verdicts(stack)[1].tolist() == [True, False, True]
    assert 1.0 < ROOT_OF_THRESHOLD < 1.0 + FLOAT_SLACK  # a threshold on P itself would pass all three


def test_cone_verdicts_match_the_stacked_kernel_on_the_benchmark_panels():
    # every size trial of the monte_carlo benchmark at seed 1: its panels, its trial counts and
    # its Monte Carlo seed, each SeedSequence([1, k]); the benchmark rechecks only 10 trials
    def subseed(key):
        return int(np.random.SeedSequence([1, key]).generate_state(1)[0])

    for ts, trials in ((cobb_douglas_statistics(10, 10, seed=subseed(1)), 10000),
                       (cobb_douglas_statistics(27, 106, seed=subseed(2)), 5000)):
        base_px = cross_value_matrix(ts)
        base = _insertion_base(base_px)
        harp_hits = 0
        for lo in range(0, trials, 500):
            new_rows = np.array([ts.quantities @ sample_positive_sphere(ts.num_goods, rng)
                                 for rng in trial_streams((subseed(3),), range(lo, lo + 500))])
            stack = np.repeat(base_px[np.newaxis], len(new_rows), axis=0)
            stack[:, -1] = new_rows
            garp_ok, harp_ok = _inserted_verdicts(base, new_rows)
            expected_garp, expected_harp = _verdicts(stack)
            assert garp_ok.tolist() == expected_garp.tolist()
            assert harp_ok.tolist() == expected_harp.tolist()
            harp_hits += int(harp_ok.sum())
        assert 0 < harp_hits < trials


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
    stack = _simulate_stack(ts, models, [np.random.default_rng((seed, b)) for b in range(trials)], trials)
    assert stack.flags.c_contiguous
    for b in range(trials):
        oracle = simulate_price_paths_by_loop(ts, models, np.random.default_rng((seed, b)))
        assert stack[b].tobytes() == oracle.tobytes()
    # the public stack of one draws the same numbers and leaves the generator in the same state
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert simulate_price_paths(ts, models, rng).tobytes() == \
        simulate_price_paths_by_loop(ts, models, oracle_rng).tobytes()
    assert rng.random() == oracle_rng.random()


def test_fitted_models_mix_orders_on_the_benchmark_panel_shape():
    ts = cobb_douglas_statistics(27, 106, seed=5)
    models = fit_price_models(ts)
    assert {model.order for model in models} == {0, 1, 2}
    stack = _simulate_stack(ts, models, [np.random.default_rng((3, b)) for b in range(5)], 5)
    for b in range(5):
        oracle = simulate_price_paths_by_loop(ts, models, np.random.default_rng((3, b)))
        assert stack[b].tobytes() == oracle.tobytes()


# Key ints of one to three uint32 words, with the word boundaries themselves.
KEY_INTS = (st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 70 + 5])
            | st.integers(0, 2 ** 80))


@given(KEY_INTS, st.lists(KEY_INTS, max_size=1), KEY_INTS, st.sampled_from([1, 2, 3, 17, 300]),
       st.integers(1, 12), st.data())
@example(0, [], 0, 1, 5, None)
@example(7, [], 0, 500, 10, None)
@example(2 ** 32 - 1, [5], 2 ** 32 - 150, 300, 3, None)  # the trial numbers cross 2^32: one word to two
@example(2 ** 64, [2 ** 64], 2 ** 64 - 1, 2, 4, None)  # six words: past the pool of four
def test_trial_streams_match_default_rng(seed, key, first, count, m, data):
    prefix = (seed, *key)
    trials = range(first, first + count)
    size = data.draw(st.integers(1, m)) if data is not None else m
    for b, rng in zip(trials, trial_streams(prefix, trials), strict=True):
        oracle = np.random.default_rng((*prefix, b))
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert rng.standard_normal(m).tobytes() == oracle.standard_normal(m).tobytes()
        assert rng.choice(m, size, replace=False).tolist() == oracle.choice(m, size, replace=False).tolist()


def test_counts_do_not_depend_on_the_batches():
    ts = cobb_douglas_statistics(7, 5, seed=3)

    def counts():
        garp, harp = forecast_size_paired(ts, 60, 9)
        report = power_estimate(ts, 60, 9)
        curve = random_group_probability(ts, [2, 3], 12, 9)  # sampled: C(5, 2) = C(5, 3) = 10 < 12 draws
        return (garp.hits, harp.hits), (report.garp_rejections, report.harp_rejections), curve

    expected = counts()
    for batch in (1, 7, 59):
        with batches_of(batch):
            assert counts() == expected


def _duplicating_last(ts, source):
    """``ts`` with the last period's bundle replaced by period ``source``'s."""
    quantities = np.array(ts.quantities)
    quantities[-1] = quantities[source]
    return trade_statistics(ts.prices, quantities)


# Panels on which inserting the redrawn last period into the base closures meets a boundary.
SIZE_PANELS = {
    # the first two periods violate both axioms: every trial fails both
    "garp_failing_base": trade_statistics([[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]],
                                          [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    # the first two periods pass acyclicity, but their 2-cycle has Paasche product 1.5
    "harp_failing_base": trade_statistics([[3.0, 1.0], [2.0, 1.0], [1.0, 1.0]],
                                          [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    # period 0's bundle costs exactly the last one's at period 0's prices, so the link from
    # period 0 into the last period is a tie, and only the closing comparison at the last
    # period fails, on the trials whose price makes good 1 the dearer
    "tie_into_last": trade_statistics([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 0.0]]),
    # whatever the price, the 2-cycle through periods 2 and 5 has product exactly one
    "duplicated_last": _duplicating_last(cobb_douglas_statistics(6, 3, 4), 2),
    "rescaled": rescale_quantities(cobb_douglas_statistics(6, 3, 5), [0.5, 2.0, 1.0, 3.0, 0.25, 4.0]),
}


@given(mc_panels(), BATCHES, st.integers(1, 13), st.integers(0, 100))
@example(cobb_douglas_statistics(3, 1, 0), 2, 7, 0)
@example(random_statistics(4, 3, 2), 3, 10, 5)
@example(trade_statistics([[2.0, 1.0]], [[1.0, 3.0]]), None, 5, 1)  # T = 1: nothing to insert into
@example(cobb_douglas_statistics(2, 3, 1), 2, 9, 2)
@example(SIZE_PANELS["garp_failing_base"], 3, 8, 0)
@example(SIZE_PANELS["harp_failing_base"], 1, 8, 0)
@example(SIZE_PANELS["tie_into_last"], 2, 13, 1)
@example(SIZE_PANELS["duplicated_last"], None, 13, 3)
@example(SIZE_PANELS["rescaled"], 5, 13, 3)
def test_size_trials_match_per_trial_oracle(ts, batch, trials, seed):
    base_px = cross_value_matrix(ts)
    expected = [size_trial(ts, base_px, seed, b) for b in range(trials)]
    assert rows(_size_batch(ts, _insertion_base(base_px), seed, range(trials))) == expected
    with batches_of(batch):
        garp, harp = forecast_size_paired(ts, trials, seed)
    assert (garp.hits, harp.hits) == tuple(sum(column) for column in zip(*expected))


def test_size_panels_meet_the_boundaries_they_name():
    def base_verdicts(ts):
        base = trade_statistics(ts.prices[:-1], ts.quantities[:-1])
        return check_garp(base).satisfied, check_harp(base).satisfied

    assert base_verdicts(SIZE_PANELS["garp_failing_base"]) == (False, False)
    assert base_verdicts(SIZE_PANELS["harp_failing_base"]) == (True, False)
    for name in ("garp_failing_base", "harp_failing_base"):
        ts = SIZE_PANELS[name]
        assert forecast_size_paired(ts, 50, 0)[1].hits == 0
    # the tie: each trial's 2-cycle through the copied period has product one up to an ulp,
    # on both sides of one; some trials pass homotheticity with it, others fail on other cycles
    ts = SIZE_PANELS["duplicated_last"]
    base_px = cross_value_matrix(ts)
    products = []
    for b in range(40):
        px = base_px.copy()
        px[-1] = ts.quantities @ sample_positive_sphere(ts.num_goods, np.random.default_rng((3, b)))
        paasche = paasche_matrix(px)
        products.append(paasche[-1, 2] * paasche[2, -1])
    assert max(abs(p - 1.0) for p in products) <= 2.5e-16
    assert min(products) < 1.0 < max(products)
    expected = [size_trial(ts, base_px, 3, b) for b in range(40)]
    assert rows(_size_batch(ts, _insertion_base(base_px), 3, range(40))) == expected
    assert 0 < sum(harp for _, harp in expected) < 40


@pytest.mark.parametrize("ts", [*SIZE_PANELS.values(), cobb_douglas_statistics(27, 106, 1)],
                         ids=[*SIZE_PANELS, "cobb_douglas_27_106"])
def test_size_trials_match_the_public_tests_on_each_trial_panel(ts):
    # the oracle above shares the kernel's new row; the public tests rebuild the trial panel, whose
    # cross_value_matrix computes that row in a matrix product and may round it differently
    seed, trials = 0, 300
    expected = []
    for b in range(trials):
        prices = np.array(ts.prices)
        prices[-1] = sample_positive_sphere(ts.num_goods, np.random.default_rng((seed, b)))
        trial = trade_statistics(prices, ts.quantities)
        garp_ok, harp_ok = check_garp(trial).satisfied, check_harp(trial).satisfied
        expected.append((garp_ok or harp_ok, harp_ok))
    assert rows(_size_batch(ts, _insertion_base(cross_value_matrix(ts)), seed, range(trials))) == expected


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
            groups = [_sampled_group(ts, size, np.random.default_rng((seed, size, j)))[0]
                      for j in range(samples)]
        expected = [group_verdicts(ts, g) for g in groups]
        assert rows(_group_batch(ts, groups)) == expected
        assert (p_garp, p_harp) == tuple(sum(column) / len(expected) for column in zip(*expected))


def test_sampled_groups_and_skips_match_a_plain_loop():
    # period t buys only goods 2t and 2t + 1, so a group is valid only if it meets
    # every pair: 8 of the C(6, 3) = 20 groups of three, 12 of the 15 groups of four
    quantities = np.kron(np.eye(3), np.ones(2))
    ts = trade_statistics(random_statistics(3, 6, 0).prices, quantities)
    sizes, samples, seed = [3, 4], 12, 5
    chosen = []

    def recording(ts, groups):
        chosen.extend(groups)
        return _group_batch(ts, groups)

    with mock.patch.object(econometrics, "_group_batch", recording):
        curve = random_group_probability(ts, sizes, samples, seed)
    expected_groups, expected_skips = [], []
    for size in sizes:
        assert math.comb(ts.num_goods, size) > samples
        skipped = 0
        for j in range(samples):
            rng = np.random.default_rng((seed, size, j))
            while True:
                idx = np.sort(rng.choice(ts.num_goods, size=size, replace=False))
                if np.all(ts.quantities[:, idx].max(axis=1) > 0.0):
                    expected_groups.append(idx.tolist())
                    break
                skipped += 1
        expected_skips.append(skipped)
    assert [g.tolist() for g in chosen] == expected_groups
    assert curve.skipped == tuple(expected_skips)
    assert all(expected_skips)


def test_each_experiment_enforces_its_own_implication():
    # a verdict pair that fails acyclicity but passes homotheticity, as rounding at
    # the cycle-product boundary can give: power counts both rejections, size and
    # groups count both passes
    def split(px):
        return np.zeros(len(px), dtype=bool), np.ones(len(px), dtype=bool)

    ts = cobb_douglas_statistics(5, 3, seed=2)
    with mock.patch.object(econometrics, "_verdicts", split), \
            mock.patch.object(forecast, "_inserted_verdicts", lambda base, px: split(px)):
        assert rows(_power_batch(ts, fit_price_models(ts), 1, range(3))) == [(True, True)] * 3
        assert rows(_size_batch(ts, _insertion_base(cross_value_matrix(ts)), 1, range(3))) == [(True, True)] * 3
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
        # through the experiments: the trial panels inherit the overflowing base period, which the
        # oracle refuses only at the Paasche checks; every experiment refuses its cross values as
        # cross_value_matrix does, the size trials where they build the base ones, before any trial
        ts = trade_statistics([[1e300, 1.0], [1.0, 1.0], [1.0, 1.0]], [[1e10, 1.0], [1.0, 1.0], [1.0, 1.0]])
        base_px = ts.prices @ ts.quantities.T
        assert _error(lambda: size_trial(ts, base_px, 1, 0)) == \
            (TradeDataError, "Paasche matrix must be strictly positive")
        for experiment in (lambda: forecast_size_paired(ts, 5, 1), lambda: power_estimate(ts, 5, 1),
                           lambda: random_group_probability(ts, [2], 5, 1)):
            assert _error(experiment) == (TradeDataError, "cross-value matrix must be finite")
        # here only the trials' new rows overflow: the size trials refuse them as the full tests
        # refuse trial 0's rebuilt panel, not at the Paasche checks as the oracle does
        ts = trade_statistics([[1e-10, 2e-10], [2e-10, 1e-10], [1e-10, 1e-10]],
                              [[1.7e308, 1e307], [1e307, 1.7e308], [1.7e308, 1.7e308]])
        assert np.isfinite(cross_value_matrix(ts)).all()
        prices = np.array(ts.prices)
        prices[-1] = sample_positive_sphere(ts.num_goods, np.random.default_rng((1, 0)))
        trial = trade_statistics(prices, ts.quantities)
        for call in (lambda: check_garp(trial), lambda: check_harp(trial),
                     lambda: forecast_size_paired(ts, 5, 1)):
            assert _error(call) == (TradeDataError, "cross-value matrix must be finite")


def test_invalid_trial_rows_raise_what_the_full_stack_raises():
    # each kind of new row fails one of paasche_matrix's checks (or none); a batch raises the first
    # check that any trial or the base fails, in paasche_matrix's order, whatever the trials' order
    kinds = {
        "valid": [1.0, 1.0, 1.5],
        "zero": [0.0, 1.0, 1.0],  # a cross value that is not positive
        "nan": [np.nan, 1.0, 1.0],
        "infinite_row": [np.inf, 1.0, 1.0],  # Paasche entry 2 / inf = 0
        "infinite_new": [1.0, 1.0, np.inf],  # Paasche corner inf / inf = NaN
        "tiny": [1e-320, 1.0, 1.0],  # Paasche entry 2 / 1e-320 overflows
    }
    valid_base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]])
    overflowing_base = np.array([[2.0, 1e-320, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]])
    with np.errstate(all="ignore"):
        for base_px in (valid_base, overflowing_base):
            base = _insertion_base(base_px)
            for batch in [[k] for k in kinds] + [[a, b] for a in kinds for b in kinds]:
                new_rows = np.array([kinds[k] for k in batch])
                stack = np.repeat(base_px[np.newaxis], len(batch), axis=0)
                stack[:, -1] = new_rows
                expected = _error(lambda: _verdicts(stack))
                assert (expected is None) == (base_px is valid_base and set(batch) == {"valid"})
                assert _error(lambda: _inserted_verdicts(base, new_rows)) == expected, (batch, expected)


def test_overflowing_scaled_paasche_raises_the_oracle_error():
    # C[0, 1] = 1e7 / 1e-300 is finite, but dividing it by omega = 0.01 overflows
    px = np.array([[1.0, 1e-300], [1.0, 1e7]])
    with np.errstate(over="ignore"):
        expected = _error(lambda: verdicts_by_trial(px, 0.01))
        assert expected == (ValueError, "matrix must be finite")
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
    # a T=27, m=106 panel, the benchmark's larger one.  Both trial counts run full batches of the
    # experiment's own size, so both peaks hold one batch; a warm-up run first fills the
    # interpreter's free lists, so both peaks start from the same state
    ts = cobb_douglas_statistics(27, 106, seed=1)
    module = {power_estimate: econometrics, forecast_size_paired: forecast}[experiment]
    sizes = []
    with mock.patch.object(module, "batch_size", lambda floats: sizes.append(batch_size(floats)) or sizes[-1]):
        experiment(ts, 1, 4)
    small, large = 2 * sizes[0], 20 * sizes[0]
    experiment(ts, large, 4)
    small_peak = _traced_peak(lambda: experiment(ts, small, 3))
    large_peak = _traced_peak(lambda: experiment(ts, large, 3))
    assert large_peak <= 1.05 * small_peak
