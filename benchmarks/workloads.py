"""The three benchmark workloads: seeded inputs, one pass of operations, output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  Inputs depend only on the workload seed, and
every pass repeats the same operations on the same inputs, so any pass can
be compared with the reference captured for the default seed.
"""

from __future__ import annotations

import array
import contextlib
import csv
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import konus
import konus.cli

DEFAULT_SEED = 1
REFERENCE_REL_TOL = 1e-9


def subseed(seed: int, key: int) -> int:
    """Independent 32-bit seed for one input of the workload."""
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def write_panel(ts, directory: Path, name: str) -> list[str]:
    """Write the two CSV tables the CLI reads; returns their paths."""
    paths = []
    for table, values in (("prices", ts.prices), ("quantities", ts.quantities)):
        path = directory / f"{name}_{table}.csv"
        lines = [",".join(["period", *ts.good_ids])]
        lines += [",".join([pid, *(repr(float(v)) for v in row)])
                  for pid, row in zip(ts.period_ids, values)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def read_outputs(directory: Path) -> dict[str, list[str]]:
    """Lines of every file the command wrote except its manifest."""
    return {path.name: path.read_text(encoding="utf-8").splitlines()
            for path in sorted(directory.iterdir())
            if path.is_file() and path.name != "manifest.json"}


def rows(files: dict[str, list[str]], name: str) -> list[list[str]]:
    """Data rows of one written CSV, header dropped."""
    return list(csv.reader(files[name]))[1:]


# ---------------------------------------------------------------------------
# reference comparison

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_INTEGER = re.compile(r"[-+]?\d+")


def _same_text(expected: str, actual: str) -> bool:
    """Equal text, except that floating numbers may differ by the reference tolerance.

    Integers (counts, trial numbers, seeds) must match digit for digit.
    """
    if _NUMBER.sub("#", expected) != _NUMBER.sub("#", actual):
        return False
    for a, b in zip(_NUMBER.findall(expected), _NUMBER.findall(actual)):
        if _INTEGER.fullmatch(a) and _INTEGER.fullmatch(b):
            if a != b:
                return False
            continue
        x, y = float(a), float(b)
        if x != y and not abs(x - y) <= REFERENCE_REL_TOL * max(abs(x), abs(y)):
            return False
    return True


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between a reference value and an output, as readable lines."""
    if expected == actual:
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual or key not in expected:
                problems.append(f"{where}/{key}: present in only one of reference and output")
            else:
                problems += compare(expected[key], actual[key], f"{where}/{key}")
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(actual)} entries, reference has {len(expected)}"]
        problems = []
        for i, (a, b) in enumerate(zip(expected, actual)):
            problems += compare(a, b, f"{where}[{i}]")
        return problems
    if isinstance(expected, str) and isinstance(actual, str) and _same_text(expected, actual):
        return []
    return [f"{where}: {actual!r} differs from reference {expected!r}"]


def comparator_problems() -> list[str]:
    """Differences :func:`compare` must catch, and ones it must let pass."""
    bits = "".join("1" if j % 3 else "0" for j in range(500))  # verdicts, one per bundle
    flipped = bits[:317] + ("0" if bits[317] == "1" else "1") + bits[318:]
    cases = [
        ({"kh": bits}, {"kh": flipped}, True),
        (["garp,10000,2747,0.2747"], ["garp,10000,2748,0.2747"], True),
        (["seed,40107558241234567890"], ["seed,40107558241234567891"], True),
        (["1.5878395438709283"], ["1.5878395538709283"], True),
        (["1.5878395438709283"], ["nan"], True),
        (["1.5878395438709283"], ["1.5878395438709285"], False),
    ]
    problems = []
    for expected, actual, differs in cases:
        if bool(compare(expected, actual)) != differs:
            problems.append(f"reference comparison {'misses' if differs else 'rejects'} "
                            f"{actual!r:.60} against {expected!r:.60}")
    return problems


# ---------------------------------------------------------------------------
# independent output checks


def _cross_values(ts) -> np.ndarray:
    return ts.prices @ ts.quantities.T


def _positions(ts, ids: list[str]) -> list[int]:
    lookup = {pid: i for i, pid in enumerate(ts.period_ids)}
    return [lookup[pid] for pid in ids]


def garp_witness_problems(ts, text: str, omega: float = 1.0) -> list[str]:
    """Every chain link is revealed preferred and the closing comparison fails."""
    match = re.match(r"chain (.+?); closing comparison fails", text)
    if match is None:
        return [f"unparseable GARP witness {text!r}"]
    try:
        chain = _positions(ts, match.group(1).split(" -> "))
    except KeyError:
        return [f"GARP witness names an unknown period: {text!r}"]
    px = _cross_values(ts)
    problems = []
    if len(chain) < 2:
        problems.append("GARP chain has fewer than two periods")
    for a, b in zip(chain, chain[1:]):
        if not px[a, a] >= omega * px[a, b]:
            problems.append(f"GARP chain link {a}->{b} is not a revealed preference")
    s, t = chain[-1], chain[0]
    if not px[s, s] > omega * px[s, t]:
        problems.append("GARP closing comparison does not fail")
    return problems


def harp_witness_problems(ts, text: str, omega: float = 1.0) -> list[str]:
    """The cycle's Paasche product exceeds omega^k and matches the reported product."""
    match = re.match(r"cycle (.+?); product (?:np\.float64\()?([-+0-9.eE]+)\)? exceeds omega\^(\d+)$",
                     text)
    if match is None:
        return [f"unparseable HARP witness {text!r}"]
    ids = match.group(1).split(" -> ")
    if len(ids) < 3 or ids[0] != ids[-1]:
        return [f"HARP witness is not a closed cycle: {text!r}"]
    try:
        cycle = _positions(ts, ids[:-1])
    except KeyError:
        return [f"HARP witness names an unknown period: {text!r}"]
    px = _cross_values(ts)
    product = 1.0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        product *= px[b, b] / px[a, b]
    reported, k = float(match.group(2)), int(match.group(3))
    problems = []
    if k != len(cycle):
        problems.append(f"HARP witness length {k} does not match its cycle of {len(cycle)}")
    if not product > omega ** len(cycle):
        problems.append(f"HARP cycle product {product!r} does not exceed omega^{len(cycle)}")
    if abs(product - reported) > 1e-9 * abs(product):
        problems.append(f"HARP reported product {reported!r} differs from recomputed {product!r}")
    return problems


def verdict_problems(ts, files, expected: dict[str, bool]) -> list[str]:
    seen = {row[0]: row for row in rows(files, "verdicts.csv")}
    problems = []
    for axiom, satisfied in expected.items():
        row = seen.get(axiom)
        if row is None:
            problems.append(f"no {axiom} verdict written")
            continue
        status = row[2]
        if status != ("satisfied" if satisfied else "violated"):
            problems.append(f"{axiom} verdict {status!r}, expected {'pass' if satisfied else 'fail'}")
        elif not satisfied:
            check = garp_witness_problems if axiom == "garp" else harp_witness_problems
            problems += check(ts, row[3])
    return problems


def exact_index_problems(expenditures: np.ndarray, index_rows: list[list[str]]) -> list[str]:
    """``consumption * price == expenditure`` bit for bit in every period."""
    if len(index_rows) != len(expenditures):
        return [f"{len(index_rows)} index rows for {len(expenditures)} periods"]
    bad = [i for i, (c, p) in enumerate(index_rows) if float(c) * float(p) != expenditures[i]]
    return [f"consumption * price != expenditure in {len(bad)} periods"] if bad else []


def omega_h_problems(ts, files) -> list[str]:
    """HARP passes at the reported index and fails just below it."""
    omega_h = float(rows(files, "irrationality.csv")[0][2])
    problems = []
    if not konus.check_harp(ts, omega_h).satisfied:
        problems.append(f"check_harp fails at its own index omega_h={omega_h!r}")
    if konus.check_harp(ts, omega_h * (1.0 - 1e-6)).satisfied:
        problems.append(f"check_harp passes below omega_h={omega_h!r}")
    return problems


# ---------------------------------------------------------------------------
# operations and passes


@dataclass
class CliOp:
    """One CLI command of a pass, with the checks its outputs must pass."""

    kind: str          # CLI command; its wall time sums into cli_<kind>_s
    label: str
    argv: list[str]
    weight: int        # operations this command counts for
    expect_rc: int
    check: Callable[[dict], list[str]] = lambda files: []


@dataclass
class PassResult:
    seconds: float = 0.0            # summed wall time of the timed calls
    wall: float = 0.0               # wall time of the whole pass, checks included
    ops: int = 0
    failed: int = 0
    command_seconds: dict[str, float] = field(default_factory=dict)
    # packed, so that peak_rss_mb does not grow with the number of passes
    latencies: array.array = field(default_factory=lambda: array.array("d"))
    outputs: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)   # traced passes only
    op_counts: dict = field(default_factory=dict)            # traced passes only

    def record(self, weight: int, seconds: float, problems: list[str], label: str) -> None:
        self.ops += weight
        self.seconds += seconds
        if problems:
            self.failed += weight
            self.problems += [f"{label}: {p}" for p in problems[:5]]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.reference: dict | None = None  # outputs expected from every pass, when known

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def timed(self, label: str, call):
        """Run one operation; the tracer records spans only inside it."""
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
            idx = tracer.open(f"bench.{label}")
        started = time.perf_counter()
        try:
            return call(), time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.close(idx)
                tracer.enabled = False


class CliWorkload(Workload):
    """A pass is a fixed list of ``konus.cli.main(argv)`` calls, run in-process."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.panel_dir = workdir / "panels"
        self.out_dir = workdir / "out"
        self.ops: list[CliOp] = []
        self.warm_ops: list[CliOp] = []

    def output_dir(self, op: CliOp) -> Path:
        return self.out_dir / op.label.replace(":", "_")

    def call(self, op: CliOp) -> tuple[int, float]:
        out = self.output_dir(op)

        def run() -> int:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return konus.cli.main([*op.argv, "--out", str(out)])

        return self.timed(op.label, run)

    def warm_up(self) -> None:
        for op in self.warm_ops:
            rc, _ = self.call(op)
            if rc != op.expect_rc:
                raise RuntimeError(f"warm-up {op.label} exited {rc}, expected {op.expect_rc}")

    def run_pass(self) -> PassResult:
        result = PassResult()
        for op in self.ops:
            problems: list[str] = []
            seconds = 0.0
            try:
                rc, seconds = self.call(op)
                files = read_outputs(self.output_dir(op))
                if rc != op.expect_rc:
                    problems.append(f"exit code {rc}, expected {op.expect_rc}")
                else:
                    problems += op.check(files)
                output = {"rc": rc, "files": files}
                result.outputs[op.label] = output
                if self.reference is not None:
                    problems += compare(self.reference.get(op.label), output, "reference")
            except Exception as exc:  # an operation that raises counts as failed
                problems.append(f"{type(exc).__name__}: {exc}")
            result.command_seconds[op.kind] = result.command_seconds.get(op.kind, 0.0) + seconds
            result.record(op.weight, seconds, problems, op.label)
        return result


class PanelReports(CliWorkload):
    """CLI reports on large single panels: closures, witnesses, certificates, hierarchy."""

    name = "panel_reports"

    def setup(self) -> None:
        self.panel_dir.mkdir(parents=True, exist_ok=True)
        s = self.seed
        self.panels = {
            "pass400": konus.cobb_douglas_statistics(400, 50, seed=subseed(s, 1)),
            "fail400": konus.random_statistics(400, 50, seed=subseed(s, 2)),
            "fail100": konus.random_statistics(100, 20, seed=subseed(s, 3)),
            "pass60": konus.cobb_douglas_statistics(60, 20, seed=subseed(s, 4)),
            "fail60": konus.random_statistics(60, 20, seed=subseed(s, 5)),
            "cd40": konus.cobb_douglas_statistics(40, 4, seed=subseed(s, 6)),
            "warm_pass": konus.cobb_douglas_statistics(8, 4, seed=subseed(s, 7)),
            "warm_fail": konus.random_statistics(8, 4, seed=subseed(s, 8)),
        }
        paths = {name: write_panel(ts, self.panel_dir, name) for name, ts in self.panels.items()}
        pass400 = self.panels["pass400"]
        leaves = [pass400.good_ids[i:i + 10] for i in range(0, 50, 10)]
        tree = {"name": "all", "children": [
            {"name": f"leaf{k + 1}", "goods": list(goods)} for k, goods in enumerate(leaves)
        ]}
        tree_path = self.panel_dir / "tree.json"
        tree_path.write_text(json.dumps(tree), encoding="utf-8")
        warm_tree = self.panel_dir / "warm_tree.json"
        warm_tree.write_text(json.dumps({"name": "all", "children": [
            {"name": "a", "goods": ["g1", "g2"]}, {"name": "b", "goods": ["g3", "g4"]}]}),
            encoding="utf-8")
        p = self.panels
        self.ops = [
            CliOp("test", "test:pass400", ["test", *paths["pass400"], "--axiom", "both"], 1, 0,
                  lambda f: verdict_problems(p["pass400"], f, {"garp": True, "harp": True})),
            CliOp("indices", "indices:pass400", ["indices", *paths["pass400"]], 1, 0,
                  lambda f: exact_index_problems(p["pass400"].expenditures(),
                                                 [r[1:] for r in rows(f, "index_series.csv")])),
            CliOp("hierarchy", "hierarchy:pass400",
                  ["hierarchy", *paths["pass400"], "--tree", str(tree_path)], 1, 0,
                  lambda f: self._hierarchy_problems(f, leaves)),
            CliOp("test", "test:fail400", ["test", *paths["fail400"], "--axiom", "harp"], 1, 1,
                  lambda f: verdict_problems(p["fail400"], f, {"harp": False})),
            CliOp("test", "test:fail100", ["test", *paths["fail100"], "--axiom", "both"], 1, 1,
                  lambda f: verdict_problems(p["fail100"], f, {"garp": False, "harp": False})),
            CliOp("irrationality", "irrationality:pass60", ["irrationality", *paths["pass60"]], 1, 0,
                  lambda f: omega_h_problems(p["pass60"], f)),
            CliOp("irrationality", "irrationality:fail60", ["irrationality", *paths["fail60"]], 1, 0,
                  lambda f: omega_h_problems(p["fail60"], f)),
            CliOp("forecast", "forecast:cd40",
                  ["forecast", *paths["cd40"], "--new-price", "1,1,1,1", "--expenditure", "2"], 1, 0,
                  self._forecast_problems),
        ]
        self.warm_ops = [
            CliOp("test", "warm-test", ["test", *paths["warm_fail"], "--axiom", "both"], 1, 1),
            CliOp("indices", "warm-indices", ["indices", *paths["warm_pass"]], 1, 0),
            CliOp("hierarchy", "warm-hierarchy",
                  ["hierarchy", *paths["warm_pass"], "--tree", str(warm_tree)], 1, 0),
            CliOp("irrationality", "warm-irrationality", ["irrationality", *paths["warm_fail"]], 1, 0),
            CliOp("forecast", "warm-forecast",
                  ["forecast", *paths["warm_pass"], "--new-price", "1,1,1,1", "--expenditure", "2"],
                  1, 0),
        ]

    def _hierarchy_problems(self, files, leaves) -> list[str]:
        ts = self.panels["pass400"]
        problems = []
        statuses = {row[0]: row[4] for row in rows(files, "hierarchy_nodes.csv")}
        expected = ["all"] + [f"leaf{k + 1}" for k in range(len(leaves))]
        if sorted(statuses) != sorted(expected):
            problems.append(f"hierarchy nodes {sorted(statuses)}, expected {sorted(expected)}")
        problems += [f"node {name} status {status!r}, expected 'ok'"
                     for name, status in statuses.items() if status != "ok"]
        index_rows = rows(files, "hierarchy_indices.csv")
        for k, goods in enumerate(leaves):
            idx = [ts.good_ids.index(g) for g in goods]
            leaf = konus.trade_statistics(ts.prices[:, idx], ts.quantities[:, idx])
            leaf_rows = [r[2:] for r in index_rows if r[0] == f"leaf{k + 1}"]
            problems += [f"leaf{k + 1}: {p}" for p in exact_index_problems(leaf.expenditures(), leaf_rows)]
        return problems

    def _forecast_problems(self, files) -> list[str]:
        problems = []
        gamma = [float(r[1]) for r in rows(files, "gamma.csv")]
        if len(gamma) != 40 or not all(math.isfinite(g) and g > 0.0 for g in gamma):
            problems.append("gamma coefficients are not 40 positive finite numbers")
        vertices = np.array([[float(v) for v in r] for r in rows(files, "vertices.csv")])
        if vertices.size == 0:
            problems.append("no vertices on the budget plane")
        elif np.any(vertices < -1e-9) or np.any(np.abs(vertices.sum(axis=1) - 2.0) > 1e-9):
            problems.append("a vertex is off the budget plane or negative")
        return problems


class MonteCarlo(CliWorkload):
    """CLI experiments on small panels: per-trial overhead of the Monte Carlo kernels."""

    name = "monte_carlo"
    RECHECKED_TRIALS = 10  # leading trials per experiment rebuilt and retested, once per run

    def setup(self) -> None:
        self.panel_dir.mkdir(parents=True, exist_ok=True)
        s = self.seed
        self.panels = {"cd10": konus.cobb_douglas_statistics(10, 10, seed=subseed(s, 1)),
                       "cd27": konus.cobb_douglas_statistics(27, 106, seed=subseed(s, 2))}
        cd10, cd27 = (write_panel(ts, self.panel_dir, name) for name, ts in self.panels.items())
        self.mc_seed = subseed(s, 3)
        mc_seed = str(self.mc_seed)
        self.rechecked: dict[tuple, list[str]] = {}

        def size(panel, trials):
            return lambda f: self._size_problems(f, trials) + self.recheck("size", panel)

        def power(panel, trials):
            return lambda f: self._power_problems(f, trials) + self.recheck("power", panel)

        def groups(f):
            return self._groups_problems(f) + [p for group_size in (2, 5, 10)
                                               for p in self.recheck("groups", "cd27", group_size)]

        self.ops = [
            CliOp("forecast", "forecast:cd10", ["forecast", *cd10, "--size-trials", "10000",
                                                "--seed", mc_seed], 10000, 0, size("cd10", 10000)),
            CliOp("power", "power:cd10", ["power", *cd10, "--trials", "5000", "--seed", mc_seed],
                  5000, 0, power("cd10", 5000)),
            CliOp("forecast", "forecast:cd27", ["forecast", *cd27, "--size-trials", "5000",
                                                "--seed", mc_seed], 5000, 0, size("cd27", 5000)),
            CliOp("power", "power:cd27", ["power", *cd27, "--trials", "1000", "--seed", mc_seed],
                  1000, 0, power("cd27", 1000)),
            CliOp("groups", "groups:cd27", ["groups", *cd27, "--sizes", "2,5,10", "--samples", "1000",
                                            "--seed", mc_seed], 3000, 0, groups),
        ]
        self.warm_ops = [
            CliOp("forecast", "warm-forecast", ["forecast", *cd10, "--size-trials", "20",
                                                "--seed", mc_seed], 20, 0),
            CliOp("power", "warm-power", ["power", *cd10, "--trials", "20", "--seed", mc_seed], 20, 0),
            CliOp("groups", "warm-groups", ["groups", *cd27, "--sizes", "2", "--samples", "20",
                                            "--seed", mc_seed], 20, 0),
        ]

    def recheck(self, experiment: str, panel: str, *key: int) -> list[str]:
        """Retest the leading trials of one experiment through the public axiom tests.

        The library counts for the first n trials, n = 1..k, give each trial's
        verdicts as differences.  Each trial's panel is rebuilt from its
        ``(seed, *key, trial)`` substream and tested with ``check_garp`` and
        ``check_harp``; the two must agree trial by trial.  Computed once per
        run: every pass repeats the same experiment.
        """
        if (experiment, panel, *key) not in self.rechecked:
            self.rechecked[(experiment, panel, *key)] = self._recheck(experiment, panel, *key)
        return self.rechecked[(experiment, panel, *key)]

    def _recheck(self, experiment: str, panel: str, *key: int) -> list[str]:
        ts, seed = self.panels[panel], self.mc_seed
        if experiment == "size":
            def counts(n):
                garp, harp = konus.forecast_size_paired(ts, n, seed)
                return garp.hits, harp.hits

            def trial_panel(b):
                prices = ts.prices.copy()
                prices[-1] = konus.sample_positive_sphere(ts.num_goods, np.random.default_rng((seed, b)))
                return konus.trade_statistics(prices, ts.quantities)
        elif experiment == "power":
            models = konus.fit_price_models(ts)

            def counts(n):
                report = konus.power_estimate(ts, n, seed)
                return report.garp_rejections, report.harp_rejections

            def trial_panel(b):
                prices = konus.simulate_price_paths(ts, models, np.random.default_rng((seed, b)))
                return konus.trade_statistics(prices, ts.quantities)
        else:
            (size,) = key

            def counts(n):
                curve = konus.random_group_probability(ts, [size], n, seed)
                return round(curve.p_garp[0] * n), round(curve.p_harp[0] * n)

            def trial_panel(b):
                rng = np.random.default_rng((seed, size, b))
                while True:
                    idx = np.sort(rng.choice(ts.num_goods, size=size, replace=False))
                    if np.all(ts.quantities[:, idx].max(axis=1) > 0.0):
                        return konus.trade_statistics(ts.prices[:, idx], ts.quantities[:, idx])

        where = " ".join([experiment, panel, *map(str, key)])
        problems = []
        before = (0, 0)
        for b in range(self.RECHECKED_TRIALS):
            after = counts(b + 1)
            steps = (after[0] - before[0], after[1] - before[1])
            before = after
            if not set(steps) <= {0, 1}:
                problems.append(f"{where}: counts over the first {b + 1} trials step by {steps}")
                continue
            trial_ts = trial_panel(b)
            passes = (konus.check_garp(trial_ts).satisfied, konus.check_harp(trial_ts).satisfied)
            # size and group experiments count passing trials, power counts failing ones
            expected = passes if experiment != "power" else (not passes[0], not passes[1])
            if steps != tuple(int(v) for v in expected):
                problems.append(f"{where} trial {b}: kernel counts (garp, harp) {steps}, "
                                f"public tests on the rebuilt panel give {expected}")
        return problems

    @staticmethod
    def _size_problems(files, trials) -> list[str]:
        by_axiom = {r[0]: r for r in rows(files, "forecast_size.csv")}
        garp, harp = by_axiom["garp"], by_axiom["harp"]
        problems = []
        if int(garp[1]) != trials or int(harp[1]) != trials:
            problems.append(f"size trials {garp[1]}/{harp[1]}, expected {trials}")
        if int(harp[2]) > int(garp[2]):
            problems.append(f"harp hits {harp[2]} exceed garp hits {garp[2]}")
        return problems

    @staticmethod
    def _power_problems(files, trials) -> list[str]:
        row = rows(files, "power.csv")[0]
        problems = []
        if int(row[0]) != trials:
            problems.append(f"power trials {row[0]}, expected {trials}")
        if float(row[2]) < float(row[1]):
            problems.append(f"harp rejections {row[2]} below garp rejections {row[1]}")
        return problems

    @staticmethod
    def _groups_problems(files) -> list[str]:
        curve = rows(files, "groups.csv")
        problems = []
        if [int(r[0]) for r in curve] != [2, 5, 10] or any(int(r[1]) != 1000 for r in curve):
            problems.append("group sizes or sample counts differ from the request")
        # a group of goods of a Cobb-Douglas panel is Cobb-Douglas itself
        problems += [f"size {r[0]}: p_garp {r[2]}, p_harp {r[3]}; every group should pass"
                     for r in curve if float(r[2]) != 1.0 or float(r[3]) != 1.0]
        return problems


class MembershipStream(Workload):
    """Library loop of forecasting-cone membership checks on tiny panels."""

    name = "membership_stream"
    PANELS = 40
    BUNDLES = 500

    def setup(self) -> None:
        rng = np.random.default_rng(subseed(self.seed, 1))
        self.cases = []
        while len(self.cases) < self.PANELS:
            T, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            ts = konus.trade_statistics(np.exp(rng.normal(0.0, 0.5, size=(T, m))),
                                        np.exp(rng.normal(0.0, 0.5, size=(T, m))))
            if not konus.check_harp(ts, 1.0).satisfied:
                continue
            price = np.exp(rng.normal(0.0, 0.5, size=m))
            bundles = [rng.dirichlet(np.ones(m)) * float(rng.uniform(0.2, 5.0))
                       for _ in range(self.BUNDLES)]
            self.cases.append((ts, price, bundles))

    @staticmethod
    def check(cone, ts, price, x) -> tuple[bool, bool, bool]:
        kh = konus.kh_membership(cone, ts, x)
        extended = konus.check_harp(ts.extended(price, x), 1.0).satisfied
        kg = konus.kg_membership(ts, 1.0, price, x)
        return kh, extended, kg

    def warm_up(self) -> None:
        ts, price, bundles = self.cases[0]
        cone = konus.gamma_coefficients(ts, 1.0, price)
        self.check(cone, ts, price, bundles[0])

    def run_pass(self) -> PassResult:
        result = PassResult()
        for k, (ts, price, bundles) in enumerate(self.cases):
            label = f"panel{k:02d}"
            try:
                cone, seconds = self.timed("gamma", lambda: konus.gamma_coefficients(ts, 1.0, price))
            except Exception as exc:  # the panel's checks cannot run without its cone
                result.record(len(bundles), 0.0, [f"gamma_coefficients: {exc}"], label)
                continue
            result.seconds += seconds
            failed_before = result.failed
            bits = {"kh": [], "kg": []}
            for j, x in enumerate(bundles):
                problems = []
                try:
                    (kh, extended, kg), seconds = self.timed(
                        "check", lambda: self.check(cone, ts, price, x))
                    if kh != extended:
                        problems.append(f"bundle {j}: kh_membership {kh} but extended check_harp {extended}")
                    bits["kh"].append("1" if kh else "0")
                    bits["kg"].append("1" if kg else "0")
                    result.latencies.append(seconds)
                except Exception as exc:  # an operation that raises counts as failed
                    seconds = 0.0
                    problems.append(f"bundle {j}: {type(exc).__name__}: {exc}")
                result.record(1, seconds, problems, label)
            output = {"gamma": [repr(float(g)) for g in cone.gamma],
                      "kh": "".join(bits["kh"]), "kg": "".join(bits["kg"])}
            result.outputs[label] = output
            if self.reference is not None:
                problems = compare(self.reference.get(label), output, "reference")
                if problems:  # the whole panel fails; bundles already failed count once
                    result.failed += len(bundles) - (result.failed - failed_before)
                    result.problems += [f"{label}: {p}" for p in problems[:5]]
        return result


WORKLOADS = {cls.name: cls for cls in (PanelReports, MonteCarlo, MembershipStream)}
