"""Partition trees, composite-good aggregation, and hierarchy reports."""

import json

import numpy as np
import pytest

from konus import (
    GroupSelection,
    TradeDataError,
    aggregate,
    build_hierarchy,
    check_harp,
    cobb_douglas_statistics,
    harp_irrationality,
    konus_divisia_series,
    parse_partition_tree,
    random_statistics,
    render_tree,
    restrict_to_group,
    solve_harp_multipliers,
    trade_statistics,
    validate_tree,
)
from konus.hierarchy import TreeNode

from conftest import count_closures, near_homothetic_panel, random_panel


def leaf_series(ts, indices):
    sub = restrict_to_group(ts, GroupSelection(indices=indices))
    return konus_divisia_series(sub, solve_harp_multipliers(sub, 1.0)), GroupSelection(indices=indices)


def test_parse_tree_roundtrip():
    doc = {
        "name": "root",
        "goods": ["g5"],
        "children": [
            {"name": "food", "goods": ["g1", "g2"]},
            {"name": "fuel", "goods": ["g3", "g4"]},
        ],
    }
    tree = parse_partition_tree(json.dumps(doc))
    assert tree.name == "root"
    assert [c.name for c in tree.children] == ["food", "fuel"]
    assert set(tree.covered_goods()) == {"g1", "g2", "g3", "g4", "g5"}


def test_parse_tree_rejects_empty_leaf():
    with pytest.raises(TradeDataError, match="must list its goods"):
        parse_partition_tree({"name": "leaf"})


def test_validate_tree_rejects_overlap_and_unknown_goods():
    ts = cobb_douglas_statistics(4, 4, seed=1)
    overlapping = TreeNode("root", (TreeNode("a", (), ("g1", "g2")), TreeNode("b", (), ("g2",))), ())
    with pytest.raises(TradeDataError, match="overlapping"):
        validate_tree(ts, overlapping)
    unknown = TreeNode("root", (), ("nope",))
    with pytest.raises(TradeDataError, match="unknown good"):
        validate_tree(ts, unknown)


def test_aggregate_singletons_reproduce_raw_series():
    ts = cobb_douglas_statistics(6, 3, seed=3)
    children = [leaf_series(ts, (i,)) for i in range(3)]
    agg = aggregate(ts, children)
    # composite prices are base-normalised raw prices; quantities proportional to raw demand
    for i in range(3):
        np.testing.assert_allclose(agg.prices[:, i], ts.prices[:, i] / ts.prices[0, i], rtol=1e-9)
        ratio = agg.quantities[:, i] / ts.quantities[:, i]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


def test_aggregate_single_composite_good_always_consistent():
    rng = np.random.default_rng(5)
    panels = 0
    for _ in range(40):
        ts = random_panel(rng, m=3)
        if not check_harp(ts, 1.0).satisfied:
            continue
        panels += 1
        children = [leaf_series(ts, (0, 1, 2))]
        agg = aggregate(ts, children)
        assert agg.num_goods == 1
        assert check_harp(agg, 1.0).satisfied
    assert panels > 5


def test_aggregate_rejects_overlap():
    ts = cobb_douglas_statistics(4, 3, seed=7)
    children = [leaf_series(ts, (0, 1)), leaf_series(ts, (1, 2))]
    with pytest.raises(TradeDataError, match="overlapping"):
        aggregate(ts, children)


def test_aggregate_keeps_passthrough_rows():
    ts = cobb_douglas_statistics(4, 3, seed=9)
    agg = aggregate(ts, [leaf_series(ts, (0, 1))], GroupSelection(indices=(2,)))
    assert agg.good_ids[-1] == ts.good_ids[2]
    np.testing.assert_array_equal(agg.prices[:, -1], ts.prices[:, 2])
    np.testing.assert_array_equal(agg.quantities[:, -1], ts.quantities[:, 2])


def test_flat_tree_matches_direct_test():
    for seed in range(6):
        ts = random_statistics(4, 4, seed=seed)
        report = build_hierarchy(ts, TreeNode("all", (), tuple(ts.good_ids)))
        direct = check_harp(ts, 1.0).satisfied
        assert (report.root.status == "ok") == direct
        if direct:
            assert report.root.series is not None


def test_two_level_tree_consistent_with_aggregated_panel(appendix_panel_half):
    tree = TreeNode(
        "root",
        (TreeNode("pair", (), ("g1", "g2")),),
        ("g3",),
    )
    report = build_hierarchy(appendix_panel_half, tree)
    pair = report.node("pair")
    assert pair.status in ("ok", "violated")
    if pair.status == "ok":
        root = report.root
        assert root.statistics is not None
        assert root.statistics.num_goods == 2
        assert (root.status == "ok") == check_harp(root.statistics, 1.0).satisfied


def test_failed_leaf_blocks_parent_but_everything_reported():
    prices = np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 1.0]])
    quantities = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
    ts = trade_statistics(prices, quantities)  # goods 1-2 form the failing pair
    tree = TreeNode("root", (TreeNode("bad", (), ("g1", "g2")), TreeNode("solo", (), ("g3",))), ())
    report = build_hierarchy(ts, tree)
    bad = report.node("bad")
    assert bad.status == "violated"
    assert bad.omega_h is not None and bad.omega_h > 1.0
    assert report.node("solo").status == "ok"
    assert report.root.status == "blocked"
    assert not report.root.implies_flat_harp


def test_single_good_leaf_is_analysed():
    # a one-good panel telescopes: every cycle product is exactly one
    ts = cobb_douglas_statistics(30, 6, 3)
    tree = TreeNode("root", (TreeNode("l1", (), ("g1",)),
                             TreeNode("l2", (), ("g2", "g3", "g4", "g5", "g6"))), ())
    report = build_hierarchy(ts, tree)
    assert report.node("l1").status == "ok"


def test_hierarchy_indices_exact_product_and_base_period():
    count = 0
    for seed in range(40):
        ts = cobb_douglas_statistics(5, 6, seed=seed)
        tree = TreeNode(
            "root",
            (TreeNode("a", (), ("g1", "g2")), TreeNode("b", (), ("g3", "g4", "g5"))),
            ("g6",),
        )
        report = build_hierarchy(ts, tree)
        for node in report.nodes:
            if node.series is None:
                continue
            count += 1
            spend = node.statistics.expenditures()
            assert node.series.price[0] == 1.0
            for t in range(node.statistics.num_periods):
                assert node.series.consumption[t] * node.series.price[t] == spend[t]
    assert count > 60


def test_aggregation_consistency_implies_flat_consistency():
    # whenever both children and the aggregated panel pass, so does the flat union
    rng = np.random.default_rng(71)
    hits = 0
    for trial in range(200):
        ts = near_homothetic_panel(rng, T=int(rng.integers(2, 6)), m=4)
        tree = TreeNode("root", (TreeNode("a", (), ("g1", "g2")), TreeNode("b", (), ("g3", "g4"))), ())
        report = build_hierarchy(ts, tree)
        if report.root.status != "ok" or not report.root.implies_flat_harp:
            continue
        hits += 1
        assert check_harp(ts, 1.0).satisfied
    assert hits > 20


def test_render_tree_mentions_all_nodes(appendix_panel_half):
    tree = TreeNode("root", (TreeNode("pair", (), ("g1", "g2")),), ("g3",))
    text = render_tree(build_hierarchy(appendix_panel_half, tree))
    assert "root" in text and "pair" in text
    assert "status=" in text


def test_each_analysed_node_builds_one_table(monkeypatch):
    tables = count_closures(monkeypatch, "_karp_table")
    closures = count_closures(monkeypatch)
    ts = cobb_douglas_statistics(8, 6, seed=3)
    tree = TreeNode("root", (TreeNode("a", (), ("g1", "g2")), TreeNode("b", (), ("g3", "g4", "g5"))),
                    ("g6",))
    report = build_hierarchy(ts, tree)
    assert [node.status for node in report.nodes] == ["ok"] * 3
    assert (tables, closures) == ([8] * 3, [])  # certified: one table per node, no closure
    tables.clear()
    prices = np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 1.0]])
    quantities = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
    ts = trade_statistics(prices, quantities)  # goods 1-2 form the failing pair
    tree = TreeNode("root", (TreeNode("bad", (), ("g1", "g2")), TreeNode("solo", (), ("g3",))), ())
    report = build_hierarchy(ts, tree)
    assert [node.status for node in report.nodes] == ["blocked", "violated", "ok"]
    assert (tables, closures) == ([2, 2], [2])  # the failing node's closure decides; blocked nodes build none


def test_node_index_is_harp_irrationality_bitwise():
    tree = TreeNode("root", (TreeNode("a", (), ("g1", "g2")), TreeNode("b", (), ("g3",))), ("g4",))
    for seed in range(10):
        for ts in (cobb_douglas_statistics(12, 4, seed=seed), random_statistics(12, 4, seed=seed),
                   cobb_douglas_statistics(1, 4, seed=seed)):
            for node in build_hierarchy(ts, tree).nodes:
                if node.statistics is not None:
                    assert np.float64(node.omega_h).tobytes() == np.float64(
                        harp_irrationality(node.statistics)).tobytes()


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_invalid_level_is_refused_before_any_table(monkeypatch, omega):
    tables = count_closures(monkeypatch, "_karp_table")
    ts = cobb_douglas_statistics(8, 6, seed=3)
    tree = TreeNode("root", (TreeNode("a", (), ("g1", "g2")),), ("g3",))
    with pytest.raises(ValueError, match="omega must be finite and positive"):
        build_hierarchy(ts, tree, omega)
    assert tables == []
