"""Span tracing at konus module boundaries, from outside the package.

The tracer replaces each boundary function under every name a konus module
(or the package namespace) looks it up by, so a call from ``konus.irrationality``
to ``check_garp`` is recorded even though the function lives in
``konus.axioms``.  Spans (name, start, end, parent, extra) are kept in flat
arrays in memory and written out once the run ends.  A boundary that no
longer exists is reported as absent; its metrics read zero.
"""

from __future__ import annotations

import array
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np


def _cube(args, kwargs, result):
    """Closure work counted from the input size: T^3 multiply-compare steps."""
    matrix = args[0] if args else kwargs.get("matrix", kwargs.get("rel"))
    return float(np.shape(matrix)[0]) ** 3


def _trials(args, kwargs, result):
    return float(kwargs.get("trials", args[1] if len(args) > 1 else 0))


def _group_samples(args, kwargs, result):
    sizes = kwargs.get("sizes", args[1] if len(args) > 1 else ())
    samples = kwargs.get("samples_per_size", args[2] if len(args) > 2 else 0)
    return float(len(sizes) * samples)


def _node_count(args, kwargs, result):
    return float(len(result.nodes))


# (module, attribute, span name, extra): the extra function turns the call's
# arguments or result into one number stored with the span.  The private
# per-trial workers (_size_trial, _power_trial, _sampled_group,
# _group_verdicts) feed no metric of their own; they are the child spans of
# mc.map_trials, so that its self time is the dispatch overhead alone.
BOUNDARIES = [
    ("konus.cli", "main", "cli.main", None),
    ("konus.cli", "_cmd_test", "cli.test", None),
    ("konus.cli", "_cmd_indices", "cli.indices", None),
    ("konus.cli", "_cmd_irrationality", "cli.irrationality", None),
    ("konus.cli", "_cmd_hierarchy", "cli.hierarchy", None),
    ("konus.cli", "_cmd_forecast", "cli.forecast", None),
    ("konus.cli", "_cmd_power", "cli.power", None),
    ("konus.cli", "_cmd_groups", "cli.groups", None),
    ("konus.core", "load_trade_statistics", "core.load_trade_statistics", None),
    ("konus.core", "TradeStatistics.__post_init__", "core.TradeStatistics.validate", None),
    ("konus.core", "cross_value_matrix", "core.cross_value_matrix", None),
    ("konus.core", "paasche_matrix", "core.paasche_matrix", None),
    ("konus.axioms", "check_garp", "axioms.check_garp", None),
    ("konus.axioms", "check_harp", "axioms.check_harp", None),
    ("konus.semiring", "maxtimes_closure", "semiring.maxtimes_closure", _cube),
    ("konus.semiring", "boolean_closure", "semiring.boolean_closure", _cube),
    ("konus.semiring", "shortest_cycle_above", "semiring.shortest_cycle_above", None),
    ("konus.semiring", "max_cycle_geomean", "semiring.max_cycle_geomean", None),
    ("konus.afriat", "solve_harp_multipliers", "afriat.solve_harp_multipliers", None),
    ("konus.afriat", "konus_divisia_series", "afriat.konus_divisia_series", None),
    ("konus.irrationality", "harp_irrationality", "irrationality.harp_irrationality", None),
    ("konus.irrationality", "garp_irrationality", "irrationality.garp_irrationality", None),
    ("konus.forecast", "gamma_coefficients", "forecast.gamma_coefficients", None),
    ("konus.forecast", "enumerate_vertices", "forecast.enumerate_vertices", None),
    ("konus.forecast", "kh_membership", "forecast.kh_membership", None),
    ("konus.forecast", "kg_membership", "forecast.kg_membership", None),
    ("konus.forecast", "forecast_size_paired", "forecast.forecast_size_paired", _trials),
    ("konus.forecast", "_size_trial", "forecast._size_trial", None),
    ("konus.econometrics", "fit_price_models", "econometrics.fit_price_models", None),
    ("konus.econometrics", "simulate_price_paths", "econometrics.simulate_price_paths", None),
    ("konus.econometrics", "power_estimate", "econometrics.power_estimate", _trials),
    ("konus.econometrics", "_power_trial", "econometrics._power_trial", None),
    ("konus.econometrics", "random_group_probability", "econometrics.random_group_probability",
     _group_samples),
    ("konus.econometrics", "_sampled_group", "econometrics._sampled_group", None),
    ("konus.econometrics", "_group_verdicts", "econometrics._group_verdicts", None),
    ("konus._mc", "trial_rng", "mc.trial_rng", None),
    ("konus._mc", "map_trials", "mc.map_trials", None),
    ("konus.hierarchy", "build_hierarchy", "hierarchy.build_hierarchy", _node_count),
]

# Spans whose allocation peak is measured with tracemalloc, and the least
# matrix order at which it is: starting tracemalloc costs more than the whole
# search on the tiny panels of membership_stream.
MEMORY_SPANS = {"semiring.shortest_cycle_above"}
MEMORY_MIN_ORDER = 64

CLI_COMMANDS = ("test", "indices", "irrationality", "hierarchy", "forecast", "power", "groups")

# Per-layer metrics: name -> (unit, how it is computed from one traced pass).
LAYER_METRICS = {
    "cli.main.self_ms": ("ms", ("self_ms", "cli.main")),
    **{f"cli.{c}.self_ms": ("ms", ("self_ms", f"cli.{c}")) for c in CLI_COMMANDS},
    "core.load_trade_statistics.ms": ("ms", ("ms", "core.load_trade_statistics")),
    "core.TradeStatistics.validate_us": ("us", ("us", "core.TradeStatistics.validate")),
    "core.TradeStatistics.calls": ("count", ("calls", "core.TradeStatistics.validate")),
    "core.cross_value_matrix.calls": ("count", ("calls", "core.cross_value_matrix")),
    "core.paasche_matrix.calls": ("count", ("calls", "core.paasche_matrix")),
    "axioms.check_garp.calls": ("count", ("calls", "axioms.check_garp")),
    "axioms.check_garp.ms": ("ms", ("ms", "axioms.check_garp")),
    "axioms.check_harp.calls": ("count", ("calls", "axioms.check_harp")),
    "axioms.check_harp.ms": ("ms", ("ms", "axioms.check_harp")),
    "semiring.maxtimes_closure.calls": ("count", ("calls", "semiring.maxtimes_closure")),
    "semiring.maxtimes_closure.self_ms": ("ms", ("self_ms", "semiring.maxtimes_closure")),
    "semiring.maxtimes_closure.mults_computed": ("count", ("extra_sum", "semiring.maxtimes_closure")),
    "semiring.boolean_closure.calls": ("count", ("calls", "semiring.boolean_closure")),
    "semiring.boolean_closure.self_ms": ("ms", ("self_ms", "semiring.boolean_closure")),
    "semiring.shortest_cycle_above.ms": ("ms", ("ms", "semiring.shortest_cycle_above")),
    "semiring.shortest_cycle_above.peak_mb": ("MB", ("extra_max", "semiring.shortest_cycle_above")),
    "semiring.max_cycle_geomean.ms": ("ms", ("ms", "semiring.max_cycle_geomean")),
    "afriat.solve_harp_multipliers.ms": ("ms", ("ms", "afriat.solve_harp_multipliers")),
    "afriat.konus_divisia_series.ms": ("ms", ("ms", "afriat.konus_divisia_series")),
    "irrationality.harp_irrationality.ms": ("ms", ("ms", "irrationality.harp_irrationality")),
    "irrationality.garp_irrationality.ms": ("ms", ("ms", "irrationality.garp_irrationality")),
    "irrationality.garp_probes": ("count", ("children", "irrationality.garp_irrationality",
                                            "axioms.check_garp")),
    "forecast.gamma_coefficients.ms": ("ms", ("ms", "forecast.gamma_coefficients")),
    "forecast.enumerate_vertices.ms": ("ms", ("ms", "forecast.enumerate_vertices")),
    "forecast.kh_membership.us": ("us", ("us", "forecast.kh_membership")),
    "forecast.kg_membership.us": ("us", ("us", "forecast.kg_membership")),
    "forecast.forecast_size_paired.us_per_trial": ("us", ("per_extra", "forecast.forecast_size_paired")),
    "econometrics.fit_price_models.ms": ("ms", ("ms", "econometrics.fit_price_models")),
    "econometrics.simulate_price_paths.us": ("us", ("us", "econometrics.simulate_price_paths")),
    "econometrics.power_estimate.us_per_trial": ("us", ("per_extra", "econometrics.power_estimate")),
    "econometrics.random_group_probability.us_per_sample": (
        "us", ("per_extra", "econometrics.random_group_probability")),
    "mc.trial_rng.us": ("us", ("us", "mc.trial_rng")),
    "mc.map_trials.self_ms": ("ms", ("self_ms", "mc.map_trials")),
    "hierarchy.build_hierarchy.ms": ("ms", ("ms", "hierarchy.build_hierarchy")),
    "hierarchy.closures_per_node": ("count", ("closures_per_node", "hierarchy.build_hierarchy")),
}

CLOSURES = ("semiring.maxtimes_closure", "semiring.boolean_closure")


class Tracer:
    """Records spans while enabled; installs and removes the boundary wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.extra = array.array("d")
        self.enabled = False
        self.absent: list[str] = []
        self._stack: list[int] = []  # open spans; every command runs on one thread
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Start a span; returns its index for :meth:`close`."""
        stack = self._stack
        idx = len(self.name_id)
        self.name_id.append(self._intern(name))
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        self.extra.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, extra: float = 0.0) -> None:
        self.end[idx] = time.perf_counter()
        self.extra[idx] = extra
        self._stack.pop()

    def _wrap(self, name: str, fn, extra_fn):
        tracer = self
        measure_memory = name in MEMORY_SPANS

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            memory = measure_memory and args and np.ndim(args[0]) == 2 and len(args[0]) >= MEMORY_MIN_ORDER
            if memory:
                tracemalloc.start()
            extra = 0.0
            try:
                result = fn(*args, **kwargs)
                if extra_fn is not None:
                    try:
                        extra = extra_fn(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        extra = 0.0  # the boundary's signature changed; count nothing
                return result
            finally:
                if memory:
                    extra = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                tracer.close(idx, extra)

        return traced

    def install(self) -> None:
        """Wrap every boundary under each konus module name that refers to it."""
        for module_name, attribute, name, extra_fn in BOUNDARIES:
            try:
                owner = importlib.import_module(module_name)
                for part in attribute.split(".")[:-1]:
                    owner = getattr(owner, part)
                leaf = attribute.split(".")[-1]
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, extra_fn)
            if isinstance(owner, type):
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in [m for key, m in list(sys.modules.items())
                           if key == "konus" or key.startswith("konus.")]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def mark(self) -> int:
        """Index of the next span, to split the record into passes."""
        return len(self.name_id)

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            extra=np.frombuffer(self.extra, dtype=np.float64),
        )

    def layer_stats(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics over the spans recorded in ``[lo, hi)`` (one pass)."""
        names = self.names
        name_of = [names[self.name_id[i]] for i in range(lo, hi)]
        duration = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child_time = [0.0] * (hi - lo)
        for k in range(hi - lo):
            p = self.parent[lo + k]
            if p >= lo:
                child_time[p - lo] += duration[k]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        extra_sum: dict[str, float] = defaultdict(float)
        extra_max: dict[str, float] = defaultdict(float)
        for k, name in enumerate(name_of):
            calls[name] += 1
            total[name] += duration[k]
            self_total[name] += duration[k] - child_time[k]
            value = self.extra[lo + k]
            extra_sum[name] += value
            extra_max[name] = max(extra_max[name], value)

        def children(parent_name: str, child_name: str) -> int:
            count = 0
            for k, name in enumerate(name_of):
                p = self.parent[lo + k]
                if name == child_name and p >= lo and name_of[p - lo] == parent_name:
                    count += 1
            return count

        def closures_per_node(root_name: str) -> float:
            nodes = extra_sum[root_name]
            if not nodes:
                return 0.0
            count = 0
            for k, name in enumerate(name_of):
                if name not in CLOSURES:
                    continue
                p = self.parent[lo + k]
                while p >= lo and name_of[p - lo] != root_name:
                    p = self.parent[p]
                count += p >= lo
            return count / nodes

        out: dict[str, float] = {}
        for metric, (_, (kind, name, *rest)) in LAYER_METRICS.items():
            if kind == "calls":
                value = float(calls[name])
            elif kind == "ms":
                value = total[name] * 1e3
            elif kind == "self_ms":
                value = self_total[name] * 1e3
            elif kind == "us":
                value = total[name] / calls[name] * 1e6 if calls[name] else 0.0
            elif kind == "per_extra":
                value = total[name] / extra_sum[name] * 1e6 if extra_sum[name] else 0.0
            elif kind == "extra_sum":
                value = extra_sum[name]
            elif kind == "extra_max":
                value = extra_max[name]
            elif kind == "children":
                value = float(children(name, rest[0]))
            elif kind == "closures_per_node":
                value = closures_per_node(name)
            else:  # pragma: no cover - table typo
                raise ValueError(kind)
            out[metric] = value
        return out

    def op_counts(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Exactly repeating counts per benchmark operation, keyed by its span name."""
        per_op: dict[str, dict[str, float]] = {}
        root_of: dict[int, int] = {}
        for i in range(lo, hi):
            p = self.parent[i]
            root_of[i] = root_of.get(p, p) if p >= lo else i
            name = self.names[self.name_id[i]]
            if p < lo:
                per_op.setdefault(name, defaultdict(float))["ops"] += 1
                continue
            counts = per_op.setdefault(self.names[self.name_id[root_of[i]]], defaultdict(float))
            if name in CLOSURES:
                counts["closure_calls"] += 1
            if name == "semiring.maxtimes_closure":
                counts["mults_computed"] += self.extra[i]
            if name == "core.cross_value_matrix":
                counts["cross_value_matrix_calls"] += 1
            if name == "axioms.check_garp" and self.names[self.name_id[p]] == "irrationality.garp_irrationality":
                counts["garp_probes"] += 1
            if name == "semiring.shortest_cycle_above":
                counts["shortest_cycle_above_peak_mb"] = max(
                    counts["shortest_cycle_above_peak_mb"], self.extra[i])
        result = {}
        for op, counts in per_op.items():
            ops = counts.pop("ops")
            result[op] = {"ops": ops, **{
                key: value if key.endswith("_mb") else value / ops for key, value in counts.items()
            }}
        return result
