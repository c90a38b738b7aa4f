"""Panel loading, validation, and the derived cross-value / Paasche matrices."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from konus import (
    GroupSelection,
    TradeDataError,
    check_garp,
    check_harp,
    cross_value_matrix,
    load_trade_statistics,
    paasche_matrix,
    rescale_quantities,
    restrict_to_group,
    trade_statistics,
)
from konus.forecast import CounterexampleFixture

from conftest import random_panel

APPENDIX_PRICES = "period,a,b,c\nt1,2,1,4\nt2,2,1,2\nt3,2,2,1\n"
APPENDIX_QUANTITIES = "period,a,b,c\nt1,1,0,0\nt2,0,1,0\nt3,0,0,1\n"


def test_load_appendix_tables():
    ts = load_trade_statistics(io.StringIO(APPENDIX_PRICES), io.StringIO(APPENDIX_QUANTITIES))
    assert ts.num_periods == 3 and ts.num_goods == 3
    assert ts.good_ids == ("a", "b", "c")
    assert ts.period_ids == ("t1", "t2", "t3")
    np.testing.assert_array_equal(ts.prices[0], [2.0, 1.0, 4.0])


def test_load_minimal_table():
    ts = load_trade_statistics(io.StringIO("p,g\nt,5\n"), io.StringIO("p,g\nt,2\n"))
    assert ts.num_periods == 1 and ts.num_goods == 1
    assert cross_value_matrix(ts)[0, 0] == 10.0


def test_load_rejects_all_zero_quantity_row():
    quantities = "period,a,b,c\nt1,1,0,0\nt2,0,0,0\nt3,0,0,1\n"
    with pytest.raises(TradeDataError, match="all-zero quantity"):
        load_trade_statistics(io.StringIO(APPENDIX_PRICES), io.StringIO(quantities))


def test_load_reports_cell_location():
    quantities = "period,a,b,c\nt1,1,0,0\nt2,0,oops,0\nt3,0,0,1\n"
    with pytest.raises(TradeDataError) as err:
        load_trade_statistics(io.StringIO(APPENDIX_PRICES), io.StringIO(quantities))
    assert err.value.row == "t2" and err.value.column == "b"


def test_load_rejects_an_empty_period_id():
    with pytest.raises(TradeDataError) as caught:
        load_trade_statistics(io.StringIO("period,g\n,5\nt2,3\n"), io.StringIO("period,g\nt1,1\nt2,1\n"))
    assert str(caught.value) == "empty period id in price table (row 2)"


def test_load_rejects_header_mismatch():
    quantities = "period,a,b,z\nt1,1,0,0\nt2,0,1,0\nt3,0,0,1\n"
    with pytest.raises(TradeDataError, match="good headers differ"):
        load_trade_statistics(io.StringIO(APPENDIX_PRICES), io.StringIO(quantities))


def test_load_rejects_nonpositive_price():
    prices = "period,a,b,c\nt1,2,1,4\nt2,2,0,2\nt3,2,2,1\n"
    with pytest.raises(TradeDataError, match="non-positive price") as err:
        load_trade_statistics(io.StringIO(prices), io.StringIO(APPENDIX_QUANTITIES))
    assert err.value.row == "t2" and err.value.column == "b"


def test_load_rejects_negative_quantity():
    quantities = "period,a,b,c\nt1,1,0,0\nt2,0,1,-1\nt3,0,0,1\n"
    with pytest.raises(TradeDataError, match="negative quantity"):
        load_trade_statistics(io.StringIO(APPENDIX_PRICES), io.StringIO(quantities))


def test_load_rejects_ragged_row():
    quantities = "period,a,b,c\nt1,1,0\nt2,0,1,0\nt3,0,0,1\n"
    with pytest.raises(TradeDataError, match="value cells"):
        load_trade_statistics(io.StringIO(APPENDIX_PRICES), io.StringIO(quantities))


def test_cross_values_appendix(appendix_panel):
    np.testing.assert_array_equal(
        cross_value_matrix(appendix_panel),
        [[2.0, 1.0, 4.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]],
    )


def test_cross_values_appendix_half(appendix_panel_half):
    np.testing.assert_allclose(
        cross_value_matrix(appendix_panel_half),
        [[4.5, 4.0, 5.5], [3.5, 3.0, 3.5], [3.5, 3.5, 3.0]],
    )


def test_paasche_appendix(appendix_panel):
    np.testing.assert_array_equal(
        paasche_matrix(cross_value_matrix(appendix_panel)),
        [[1.0, 1.0, 0.25], [1.0, 1.0, 0.5], [1.0, 0.5, 1.0]],
    )


def test_paasche_unit_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ts = random_panel(rng)
        np.testing.assert_array_equal(np.diagonal(paasche_matrix(cross_value_matrix(ts))),
                                      np.ones(ts.num_periods))


def test_paasche_single_good_two_periods():
    ts = trade_statistics([[1.0], [2.0]], [[1.0], [1.0]])
    np.testing.assert_array_equal(paasche_matrix(cross_value_matrix(ts)), [[1.0, 2.0], [0.5, 1.0]])


def test_restrict_identity(appendix_panel):
    same = restrict_to_group(appendix_panel, GroupSelection(indices=(0, 1, 2)))
    np.testing.assert_array_equal(same.prices, appendix_panel.prices)
    np.testing.assert_array_equal(same.quantities, appendix_panel.quantities)


def test_restrict_rejects_zero_row(appendix_panel):
    # demand of period 2 restricted to the first good is identically zero
    with pytest.raises(TradeDataError, match="all-zero quantity row"):
        restrict_to_group(appendix_panel, GroupSelection(indices=(0,)))


def test_restrict_single_good():
    ts = trade_statistics([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [2.0, 1.0]])
    sub = restrict_to_group(ts, GroupSelection(indices=(1,)))
    assert sub.num_goods == 1
    assert sub.good_ids == ("g2",)
    np.testing.assert_array_equal(sub.quantities, [[1.0], [1.0]])


def test_restrict_composes_as_intersection():
    rng = np.random.default_rng(11)
    ts = random_panel(rng, T=4, m=5)
    once = restrict_to_group(ts, GroupSelection(indices=(0, 2, 3, 4)))
    twice = restrict_to_group(once, GroupSelection(indices=(1, 3)))  # positions within the restriction
    direct = restrict_to_group(ts, GroupSelection(indices=(2, 4)))
    np.testing.assert_array_equal(twice.prices, direct.prices)
    assert twice.good_ids == direct.good_ids


def test_rescale_identity(appendix_panel):
    same = rescale_quantities(appendix_panel, np.ones(3))
    np.testing.assert_array_equal(same.quantities, appendix_panel.quantities)


def test_rescale_doubles_cross_values(appendix_panel):
    doubled = rescale_quantities(appendix_panel, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(
        cross_value_matrix(doubled), 2.0 * cross_value_matrix(appendix_panel)
    )


def test_rescale_scales_columns(appendix_panel):
    scaled = rescale_quantities(appendix_panel, [1.0, 3.0, 1.0])
    px = cross_value_matrix(appendix_panel)
    expected = px * np.array([1.0, 3.0, 1.0])[np.newaxis, :]
    np.testing.assert_array_equal(cross_value_matrix(scaled), expected)
    paasche = paasche_matrix(cross_value_matrix(scaled))
    np.testing.assert_allclose(paasche, paasche_matrix(cross_value_matrix(appendix_panel)))


def test_rescale_rejects_nonpositive(appendix_panel):
    with pytest.raises(TradeDataError, match="non-positive"):
        rescale_quantities(appendix_panel, [1.0, 0.0, 1.0])


def test_cycle_products_invariant_under_rescaling():
    rng = np.random.default_rng(23)
    for _ in range(30):
        ts = random_panel(rng)
        mu = np.exp(rng.normal(0.0, 1.0, size=ts.num_periods))
        base = paasche_matrix(cross_value_matrix(ts))
        scaled = paasche_matrix(cross_value_matrix(rescale_quantities(ts, mu)))
        cycle = rng.permutation(ts.num_periods)
        prod_base = prod_scaled = 1.0
        for a, b in zip(cycle, np.roll(cycle, -1)):
            prod_base *= base[a, b]
            prod_scaled *= scaled[a, b]
        assert prod_scaled == pytest.approx(prod_base, rel=1e-12)


def test_cross_values_bilinear_in_prices():
    rng = np.random.default_rng(29)
    ts = random_panel(rng, T=4, m=3)
    prices = np.array(ts.prices)
    prices[2] *= 3.0
    scaled = trade_statistics(prices, ts.quantities)
    np.testing.assert_allclose(
        cross_value_matrix(scaled)[2], 3.0 * cross_value_matrix(ts)[2], rtol=1e-15
    )


def test_statistics_arrays_are_frozen(appendix_panel):
    with pytest.raises(ValueError):
        appendix_panel.prices[0, 0] = 9.9


def test_group_selection_validation():
    with pytest.raises(TradeDataError):
        GroupSelection(indices=())
    with pytest.raises(TradeDataError):
        GroupSelection(indices=(2, 1))
    with pytest.raises(TradeDataError):
        GroupSelection(indices=(-1, 0))


def test_fixture_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        CounterexampleFixture(1.0)


@pytest.mark.parametrize("px, message", [
    (np.ones((2, 3)), "cross-value matrix must be square"),
    (np.ones(3), "cross-value matrix must be square"),
    (np.array([[1.0, 0.0], [1.0, 1.0]]), "cross-value matrix must be strictly positive"),
    (np.array([[1.0, -2.0], [1.0, 1.0]]), "cross-value matrix must be strictly positive"),
    (np.array([[np.inf, 1.0], [1.0, 1.0]]), "Paasche matrix must be strictly positive"),
    (np.array([[1.0, 1e-10], [1.0, 1e300]]), "Paasche matrix must be finite"),
])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_paasche_matrix_rejects_invalid_cross_values(px, message):
    with pytest.raises(TradeDataError, match=message):
        paasche_matrix(px)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_cross_values_are_rejected_by_the_axiom_test():
    ts = trade_statistics([[1e300, 1.0], [1.0, 1.0]], [[1e10, 1.0], [1.0, 1.0]])
    with pytest.raises(TradeDataError, match="cross-value matrix must be finite"):
        check_harp(ts)


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("test", [check_garp, check_harp])
def test_overflowing_cross_value_is_refused_where_px_is_built(test):
    # px[0, 0] = 1e300 * 1e300 overflows; acyclicity used to pass such a panel
    ts = trade_statistics([[1e300, 1.0], [1.0, 1.0]], [[1e300, 1.0], [1.0, 1.0]])
    with pytest.raises(TradeDataError, match="cross-value matrix must be finite"):
        cross_value_matrix(ts)
    with pytest.raises(TradeDataError, match="cross-value matrix must be finite"):
        test(ts)


def test_cross_values_and_paasche_are_plain_arrays(appendix_panel):
    px = cross_value_matrix(appendix_panel)
    paasche = paasche_matrix(px)
    assert type(px) is np.ndarray and type(paasche) is np.ndarray
    np.testing.assert_array_equal(paasche, px.diagonal()[np.newaxis, :] / px)


POSITIVE = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.2, 5.0)
NONNEGATIVE = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 5.0)


@st.composite
def panels_and_new_rows(draw):
    """A panel of 1..6 periods over 1..4 goods, with a valid new observation for it."""
    T, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    prices = draw(arrays(float, (T + 1, m), elements=POSITIVE))
    quantities = draw(arrays(float, (T + 1, m), elements=NONNEGATIVE))
    quantities[quantities.max(axis=1) == 0.0, 0] = 1.0  # no all-zero demand row
    return trade_statistics(prices[:T], quantities[:T]), prices[T], quantities[T]


def stacked(ts, price, quantity):
    """The extended panel built and validated as a whole table."""
    return trade_statistics(np.vstack([ts.prices, price]), np.vstack([ts.quantities, quantity]),
                            good_ids=ts.good_ids, period_ids=ts.period_ids + ("new",))


def assert_same_panel(got, want):
    for name in ("prices", "quantities"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    assert got.good_ids == want.good_ids
    assert got.period_ids == want.period_ids and got.period_ids[-1] == "new"


@given(panels_and_new_rows())
def test_extended_is_the_stacked_panel(case):
    ts, price, quantity = case
    got, want = ts.extended(price, quantity), stacked(ts, price, quantity)
    assert_same_panel(got, want)
    for check in (check_garp, check_harp):
        assert check(got) == check(want)


def test_extended_accepts_a_one_row_table_and_a_scalar_for_one_good(two_period_panel):
    assert_same_panel(two_period_panel.extended([[2.0, 3.0]], [[1.0, 0.0]]),
                      stacked(two_period_panel, [2.0, 3.0], [1.0, 0.0]))
    single = trade_statistics([[1.0], [2.0]], [[1.0], [1.0]])
    assert_same_panel(single.extended(3.0, 2.0), stacked(single, [3.0], [2.0]))


NAN, INF = math.nan, math.inf
FINITE = "prices and quantities must be finite"


@pytest.mark.parametrize("price, quantity, error, message", [
    ([0.0, 1.0], [1.0, 1.0], TradeDataError, "non-positive price (row 'new', column 'g1')"),
    ([1.0, -2.0], [1.0, 1.0], TradeDataError, "non-positive price (row 'new', column 'g2')"),
    ([NAN, 1.0], [1.0, 1.0], TradeDataError, FINITE),
    ([1.0, INF], [1.0, 1.0], TradeDataError, FINITE),
    ([1.0, 1.0], [1.0, -1.0], TradeDataError, "negative quantity (row 'new', column 'g2')"),
    ([1.0, 1.0], [NAN, 1.0], TradeDataError, FINITE),
    ([1.0, 1.0], [1.0, INF], TradeDataError, FINITE),
    ([1.0, 1.0], [0.0, 0.0], TradeDataError, "all-zero quantity row (row 'new')"),
    ([0.0, 1.0], [NAN, 1.0], TradeDataError, FINITE),  # finiteness is checked first
    ([1.0, 1.0], [-1.0, 0.0], TradeDataError, "negative quantity (row 'new', column 'g1')"),
    ([1.0, 1.0, 1.0], [1.0, 1.0], ValueError, None),
    ([1.0, 1.0], [1.0], ValueError, None),
    (1.0, [1.0, 1.0], ValueError, None),
])
def test_extended_rejects_a_bad_new_row(two_period_panel, price, quantity, error, message):
    with pytest.raises(ValueError) as caught:
        two_period_panel.extended(price, quantity)
    assert type(caught.value) is error
    if message is not None:
        assert str(caught.value) == message


@pytest.mark.parametrize("rows", [np.ones((2, 2)), np.ones((0, 2))])
def test_extended_rejects_a_block_of_other_than_one_row(two_period_panel, rows):
    with pytest.raises(TradeDataError):
        two_period_panel.extended(rows, rows)


@pytest.mark.parametrize("good_ids, period_ids, message", [
    (("a", "a"), ("t1", "t2"), "duplicate good id 'a'"),
    (("a", "b"), ("g", "g"), "duplicate period id 'g'"),
    (("a", "a"), ("g", "g"), "duplicate good id 'a'"),  # goods are checked first, as the loader does
    (("", "b"), ("t1", "t2"), "empty good id"),
    (("a", "b"), ("", "b"), "empty period id"),
])
def test_library_panels_refuse_the_ids_the_loader_refuses(good_ids, period_ids, message):
    with pytest.raises(TradeDataError) as caught:
        trade_statistics([[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]],
                         good_ids=good_ids, period_ids=period_ids)
    assert str(caught.value) == message


def test_extended_refuses_a_panel_that_has_a_period_new(two_period_panel):
    ts = trade_statistics(two_period_panel.prices, two_period_panel.quantities, period_ids=("a", "new"))
    with pytest.raises(TradeDataError) as caught:
        ts.extended([1.0, 1.0], [1.0, 1.0])
    assert str(caught.value) == "duplicate period id 'new'"
    with pytest.raises(TradeDataError):
        stacked(ts, [1.0, 1.0], [1.0, 1.0])  # what the whole table gives
