"""Panel loading, validation, and the derived cross-value / Paasche matrices."""

import io

import numpy as np
import pytest

from konus import (
    GroupSelection,
    TradeDataError,
    check_harp,
    cross_value_matrix,
    load_trade_statistics,
    paasche_from_statistics,
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
        paasche_from_statistics(appendix_panel),
        [[1.0, 1.0, 0.25], [1.0, 1.0, 0.5], [1.0, 0.5, 1.0]],
    )


def test_paasche_unit_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ts = random_panel(rng)
        np.testing.assert_array_equal(np.diagonal(paasche_from_statistics(ts)),
                                      np.ones(ts.num_periods))


def test_paasche_single_good_two_periods():
    ts = trade_statistics([[1.0], [2.0]], [[1.0], [1.0]])
    np.testing.assert_array_equal(paasche_from_statistics(ts), [[1.0, 2.0], [0.5, 1.0]])


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
    paasche = paasche_from_statistics(scaled)
    np.testing.assert_allclose(paasche, paasche_from_statistics(appendix_panel))


def test_rescale_rejects_nonpositive(appendix_panel):
    with pytest.raises(TradeDataError, match="non-positive"):
        rescale_quantities(appendix_panel, [1.0, 0.0, 1.0])


def test_cycle_products_invariant_under_rescaling():
    rng = np.random.default_rng(23)
    for _ in range(30):
        ts = random_panel(rng)
        mu = np.exp(rng.normal(0.0, 1.0, size=ts.num_periods))
        base = paasche_from_statistics(ts)
        scaled = paasche_from_statistics(rescale_quantities(ts, mu))
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
    with pytest.raises(TradeDataError, match="Paasche matrix must be strictly positive"):
        check_harp(ts)


def test_cross_values_and_paasche_are_plain_arrays(appendix_panel):
    px = cross_value_matrix(appendix_panel)
    paasche = paasche_matrix(px)
    assert type(px) is np.ndarray and type(paasche) is np.ndarray
    np.testing.assert_array_equal(paasche, px.diagonal()[np.newaxis, :] / px)
