"""Hierarchies of index numbers: aggregate subgroups into composite goods.

A partition tree describes nested good groups.  Each leaf is tested for
homotheticity and, on success, summarised by its consumption and price index
series; an internal node replaces every child group by one composite good
whose price is the child's price index and whose quantity is the child's
consumption index, then runs the same analysis on the aggregated panel.  When
a node and all of its descendants pass, the flat union of its goods is
homothetically rationalizable with the composed indices.  Each analysed node
builds one Karp table, which gives its homothetic index and, when it
certifies the node, its multipliers; only a node it cannot certify closes
its Paasche matrix as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .afriat import IndexSeries, _harp_certificate, konus_divisia_series
from .core import (
    GroupSelection,
    TradeDataError,
    TradeStatistics,
    restrict_to_group,
    trade_statistics,
    validate_level,
)


@dataclass(frozen=True)
class TreeNode:
    """Node of a partition tree.

    For a leaf, ``goods`` is the group selection.  For an internal node,
    ``goods`` is the optional pass-through block kept alongside the children's
    composites; children's good sets and the pass-through block must be
    mutually disjoint.
    """

    name: str
    children: tuple["TreeNode", ...] = ()
    goods: tuple[str, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def covered_goods(self) -> tuple[str, ...]:
        out: list[str] = []
        for child in self.children:
            out.extend(child.covered_goods())
        out.extend(self.goods)
        return tuple(out)


def parse_partition_tree(document) -> TreeNode:
    """Build a tree from a JSON document (text or parsed mapping).

    Expected shape per node: ``{"name": str, "goods": [ids...], "children": [...]}``,
    with leaves carrying a non-empty good list.
    """
    if isinstance(document, (str, bytes)):
        document = json.loads(document)
    return _parse_node(document, path="root")


def _parse_node(node, path: str) -> TreeNode:
    if not isinstance(node, dict):
        raise TradeDataError(f"tree node at {path} must be a mapping")
    name = str(node.get("name", path))
    children = tuple(
        _parse_node(child, path=f"{path}.{i}") for i, child in enumerate(node.get("children", []))
    )
    goods = tuple(str(g) for g in node.get("goods", []))
    if not children and not goods:
        raise TradeDataError(f"leaf node {name!r} must list its goods")
    return TreeNode(name=name, children=children, goods=goods)


def validate_tree(ts: TradeStatistics, tree: TreeNode) -> None:
    """Check good ids exist and sibling good sets are disjoint.

    The root's covered goods list every node's goods, so one pass over them
    checks the whole tree.
    """
    seen: set[str] = set()
    for gid in tree.covered_goods():
        if gid not in ts.good_ids:
            raise TradeDataError(f"unknown good id {gid!r} in node {tree.name!r}")
        if gid in seen:
            raise TradeDataError(f"good id {gid!r} appears in overlapping groups under {tree.name!r}")
        seen.add(gid)


@dataclass(frozen=True, eq=False)
class NodeReport:
    """Per-node outcome: verdict, irrationality level, and index series.

    ``status`` is ``ok`` (passes at the recorded level), ``violated`` (its own
    panel fails), or ``blocked`` (some child failed, so the node's aggregated
    panel cannot be built).  ``implies_flat_harp`` marks nodes whose whole
    subtree passed, certifying the flat union's homothetic rationalizability
    with composed indices.
    """

    name: str
    depth: int
    goods: tuple[str, ...]
    is_leaf: bool
    status: str
    omega: float
    omega_h: float | None
    series: IndexSeries | None
    statistics: TradeStatistics | None
    implies_flat_harp: bool


@dataclass(frozen=True)
class HierarchyReport:
    nodes: tuple[NodeReport, ...]  # depth-first pre-order: parents before their children

    def node(self, name: str) -> NodeReport:
        for report in self.nodes:
            if report.name == name:
                return report
        raise KeyError(name)

    @property
    def root(self) -> NodeReport:
        return self.nodes[0]


def aggregate(
    ts: TradeStatistics,
    children: Sequence[tuple[IndexSeries, GroupSelection]],
    passthrough: GroupSelection | None = None,
    *,
    child_ids: Sequence[str] | None = None,
) -> TradeStatistics:
    """Panel with each child group replaced by one composite good.

    Per period, the composite's price is the child's price index and its
    quantity the child's consumption index; pass-through goods keep their raw
    rows.  Child selections and the pass-through block must be disjoint.
    """
    if not children and passthrough is None:
        raise TradeDataError("aggregation needs at least one child or a pass-through block")
    taken: set[int] = set()
    for _, selection in children:
        overlap = taken.intersection(selection.indices)
        if overlap:
            raise TradeDataError(f"overlapping child selections at good positions {sorted(overlap)}")
        taken.update(selection.indices)
    if passthrough is not None and taken.intersection(passthrough.indices):
        raise TradeDataError("pass-through goods overlap a child selection")
    T = ts.num_periods
    if child_ids is None:
        child_ids = [f"composite_{k + 1}" for k in range(len(children))]
    if len(child_ids) != len(children):
        raise TradeDataError("child_ids must match the children")
    price_cols: list[np.ndarray] = []
    quantity_cols: list[np.ndarray] = []
    good_ids: list[str] = []
    for (series, _), cid in zip(children, child_ids):
        if series.consumption.shape != (T,):
            raise TradeDataError(f"child {cid!r} index series does not span {T} periods")
        price_cols.append(series.price)
        quantity_cols.append(series.consumption)
        good_ids.append(str(cid))
    if passthrough is not None:
        for i in passthrough.indices:
            price_cols.append(ts.prices[:, i])
            quantity_cols.append(ts.quantities[:, i])
            good_ids.append(ts.good_ids[i])
    return trade_statistics(
        np.column_stack(price_cols),
        np.column_stack(quantity_cols),
        good_ids=good_ids,
        period_ids=ts.period_ids,
    )


def build_hierarchy(ts: TradeStatistics, tree: TreeNode, omega: float = 1.0) -> HierarchyReport:
    """Depth-first analysis of every node: restrict or aggregate, test, index.

    Failed nodes are reported, not fatal; a parent whose child failed is
    marked ``blocked`` since its composite panel cannot be formed.
    """
    validate_level(omega)
    validate_tree(ts, tree)
    _, subtree = _process_node(ts, tree, omega, depth=0)
    return HierarchyReport(nodes=tuple(subtree))


def _analyse_panel(panel: TradeStatistics, omega: float):
    """Status, homothetic index and index series of one node's panel, from one Karp table."""
    omega_h, _, lm = _harp_certificate(panel, omega, 0.0)
    if lm is None:
        return "violated", omega_h, None
    return "ok", omega_h, konus_divisia_series(panel, lm)


def _process_node(ts, node: TreeNode, omega: float, depth: int) -> tuple[NodeReport, list[NodeReport]]:
    child_results = [_process_node(ts, child, omega, depth + 1) for child in node.children]
    child_outcomes = [report for report, _ in child_results]
    descendant_reports = [r for _, subtree in child_results for r in subtree]
    if any(child.status != "ok" for child in child_outcomes):
        panel = None  # a failed child leaves no composite to aggregate
    elif node.is_leaf:
        panel = restrict_to_group(ts, GroupSelection.from_ids(ts, node.goods))
    else:
        children = [
            (child.series, GroupSelection.from_ids(ts, child.goods))
            for child in child_outcomes
        ]
        passthrough = GroupSelection.from_ids(ts, node.goods) if node.goods else None
        panel = aggregate(ts, children, passthrough,
                          child_ids=[child.name for child in child_outcomes])
    status, omega_h, series = ("blocked", None, None) if panel is None else _analyse_panel(panel, omega)
    report = NodeReport(
        name=node.name, depth=depth, goods=node.covered_goods(), is_leaf=node.is_leaf,
        status=status, omega=omega, omega_h=omega_h, series=series, statistics=panel,
        implies_flat_harp=status == "ok" and all(c.implies_flat_harp for c in child_outcomes),
    )
    return report, [report] + descendant_reports


def render_tree(report: HierarchyReport) -> str:
    """Indented per-node summary: verdict and irrationality level."""
    lines = []
    for node in report.nodes:
        omega_h = "-" if node.omega_h is None else f"{node.omega_h:.6g}"
        kind = "leaf" if node.is_leaf else "group"
        lines.append("  " * node.depth + f"{node.name} [{kind}] status={node.status} omega_h={omega_h}")
    return "\n".join(lines)
