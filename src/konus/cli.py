"""Command-line driver: axiom tests, indices, forecasting, experiments, fixtures.

Every command that writes files also writes a ``manifest.json`` describing the
run; ``konus replay manifest.json`` reruns it and reproduces the outputs byte
for byte.  Randomized commands require an explicit ``--seed``.  Exit codes:
0 success, 1 axiom violated, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .afriat import InfeasibleAxiomError, konus_divisia_series, solve_harp_multipliers
from .axioms import GarpWitness, HarpWitness, check_garp, check_harp
from .core import (
    TradeDataError,
    TradeStatistics,
    load_trade_statistics,
    trade_statistics,
    validate_level,
)
from .forecast import (
    enumerate_vertices,
    forecast_size_paired,
    gamma_coefficients,
    kg_membership,
    kh_membership,
    kh_polytope,
)
from .hierarchy import build_hierarchy, parse_partition_tree, render_tree
from .irrationality import irrationality_report
from .econometrics import power_estimate, random_group_probability

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

OUTPUT_DIR_ENV = "KONUS_OUT"


# ---------------------------------------------------------------------------
# run manifest


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a command run bit for bit."""

    command: str
    params: dict
    out_dir: str = ""
    version: str = __version__

    def write(self, out_dir: Path) -> None:
        data = asdict(self)
        data["out_dir"] = str(out_dir)
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "RunManifest":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(command=data["command"], params=data["params"],
                   out_dir=data.get("out_dir", ""), version=data.get("version", ""))

    def to_argv(self, out_dir: str | None = None) -> list[str]:
        argv = [self.command]
        for key, value in sorted(self.params.items()):
            if value is None or value is False:
                continue
            flag = "--" + key.replace("_", "-")
            if key == "positional":
                argv.extend(str(v) for v in value)
                continue
            if value is True:
                argv.append(flag)
            else:
                argv.extend([flag, str(value)])
        target = out_dir if out_dir is not None else (self.out_dir or None)
        if target is not None:
            argv.extend(["--out", target])
        return argv


# ---------------------------------------------------------------------------
# counterexample fixture: three ray Engel curves over three goods


@dataclass(frozen=True)
class CounterexampleFixture:
    """Three-good fixture with ray Engel curves and a fourth evaluation budget.

    Demand directions put weight one on the own good and ``epsilon`` on the
    others; the base panel passes both axioms for every ``epsilon`` below one.
    The forecasting exercise evaluates demand at the unit price vector with
    expenditure two, where the homothetic forecasting set is a strict subset
    of the acyclicity-based support set built from intersection demands.
    """

    epsilon: float = 0.0
    prices: tuple[tuple[float, ...], ...] = ((2.0, 1.0, 4.0), (2.0, 1.0, 2.0), (2.0, 2.0, 1.0))
    price_new: tuple[float, ...] = (1.0, 1.0, 1.0)
    expenditure_new: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")

    def directions(self) -> np.ndarray:
        m = len(self.prices[0])
        return np.where(np.eye(m, dtype=bool), 1.0, self.epsilon)

    def demand(self, period: int, expenditure: float) -> np.ndarray:
        """Ray Engel curve: demand is the direction scaled by expenditure."""
        return self.directions()[period] * expenditure

    def statistics(self) -> TradeStatistics:
        """Base panel with unit-parameter demands."""
        return trade_statistics(np.asarray(self.prices, dtype=float), self.directions())

    def intersection_statistics(self) -> TradeStatistics:
        """Panel with each demand scaled to cross the new budget plane."""
        levels = intersection_demands(self)
        quantities = self.directions() * levels[:, np.newaxis]
        return trade_statistics(np.asarray(self.prices, dtype=float), quantities)


def intersection_demands(fix: CounterexampleFixture) -> np.ndarray:
    """Expenditure levels at which each Engel curve meets the new budget plane.

    Solves ``<price_new, direction_t * level> = expenditure_new`` per period;
    linear because the curves are rays.
    """
    price_new = np.asarray(fix.price_new, dtype=float)
    inner = fix.directions() @ price_new
    if np.any(inner <= 0.0):
        raise ValueError("degenerate demand direction: zero inner product with the new price")
    return fix.expenditure_new / inner


# ---------------------------------------------------------------------------
# small output helpers


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_statistics_csv(ts: TradeStatistics, prices_path: Path, quantities_path: Path) -> None:
    header = ["period", *ts.good_ids]
    _write_csv(prices_path, header,
               [[pid, *(repr(float(v)) for v in row)] for pid, row in zip(ts.period_ids, ts.prices)])
    _write_csv(quantities_path, header,
               [[pid, *(repr(float(v)) for v in row)] for pid, row in zip(ts.period_ids, ts.quantities)])


def _format_witness(ts: TradeStatistics, witness) -> str:
    if isinstance(witness, GarpWitness):
        chain = " -> ".join(ts.period_ids[i] for i in witness.chain)
        s, t = witness.comparison
        return (f"chain {chain}; closing comparison fails: "
                f"expenditure({ts.period_ids[s]}) > {witness.omega} * cross value"
                f"({ts.period_ids[s]}, {ts.period_ids[t]})")
    if isinstance(witness, HarpWitness):
        cycle = " -> ".join(ts.period_ids[i] for i in witness.cycle)
        return (f"cycle {cycle} -> {ts.period_ids[witness.cycle[0]]}; "
                f"product {witness.product!r} exceeds omega^{len(witness.cycle)}")
    return str(witness)


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "konus-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_panel(args) -> TradeStatistics:
    return load_trade_statistics(args.prices, args.quantities)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(part) for part in text.split(",") if part.strip() != ""])
    except ValueError:
        raise TradeDataError(f"unparseable vector {text!r}; expected comma-separated numbers") from None


def _manifest_params(args, keys: list[str], positional: list[str]) -> dict:
    params = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    params["positional"] = positional
    return params


# ---------------------------------------------------------------------------
# command handlers


def _cmd_test(args) -> int:
    ts = _load_panel(args)
    out = _resolve_out(args)
    axioms = ["garp", "harp"] if args.axiom == "both" else [args.axiom]
    rows = []
    violated = False
    for axiom in axioms:
        checker = check_garp if axiom == "garp" else check_harp
        verdict = checker(ts, args.omega, tol=args.tolerance)
        status = "satisfied" if verdict.satisfied else "violated"
        note = "" if verdict.satisfied else _format_witness(ts, verdict.witness)
        print(f"{axiom}(omega={args.omega}): {status}" + (f" [{note}]" if note else ""))
        rows.append([axiom, repr(args.omega), status, note])
        violated = violated or not verdict.satisfied
    _write_csv(out / "verdicts.csv", ["axiom", "omega", "status", "witness"], rows)
    RunManifest("test", _manifest_params(args, ["axiom", "omega", "tolerance"],
                                         [args.prices, args.quantities])).write(out)
    return EXIT_VIOLATED if violated else EXIT_OK


def _cmd_indices(args) -> int:
    ts = _load_panel(args)
    out = _resolve_out(args)
    lm = solve_harp_multipliers(ts, args.omega, tol=args.tolerance)
    series = konus_divisia_series(ts, lm)
    rows = [
        [pid, repr(float(f)), repr(float(q))]
        for pid, f, q in zip(ts.period_ids, series.consumption, series.price)
    ]
    _write_csv(out / "index_series.csv", ["period", "consumption_index", "price_index"], rows)
    print(f"wrote {out / 'index_series.csv'} ({ts.num_periods} periods)")
    RunManifest("indices", _manifest_params(args, ["omega", "tolerance"],
                                            [args.prices, args.quantities])).write(out)
    return EXIT_OK


def _cmd_irrationality(args) -> int:
    ts = _load_panel(args)
    out = _resolve_out(args)
    report = irrationality_report(ts)
    attained = "attained" if report.attained_g else "not attained"
    print(f"acyclicity index omega_G = {report.omega_g!r} ({attained})")
    print(f"homotheticity index omega_H = {report.omega_h!r}")
    _write_csv(out / "irrationality.csv",
               ["omega_g", "attained_g", "omega_h"],
               [[repr(report.omega_g), report.attained_g, repr(report.omega_h)]])
    RunManifest("irrationality", _manifest_params(args, [],
                                                  [args.prices, args.quantities])).write(out)
    return EXIT_OK


def _cmd_forecast(args) -> int:
    ts = _load_panel(args)
    out = _resolve_out(args)
    wrote = []
    if args.new_price:
        price_new = _parse_vector(args.new_price)
        cone = gamma_coefficients(ts, args.omega, price_new)
        _write_csv(out / "gamma.csv", ["period", "gamma"],
                   [[pid, repr(float(g))] for pid, g in zip(ts.period_ids, cone.gamma)])
        wrote.append("gamma.csv")
        if args.expenditure is not None:
            poly = kh_polytope(cone, args.expenditure)
            rows = [
                [c.label, *(repr(v) for v in c.coeffs), c.sense, repr(c.rhs)]
                for c in poly.constraints
            ]
            _write_csv(out / "polytope.csv",
                       ["constraint", *poly.variables, "sense", "rhs"], rows)
            wrote.append("polytope.csv")
            if ts.num_goods <= 4:
                vertices = enumerate_vertices(poly)
                _write_csv(out / "vertices.csv", list(poly.variables),
                           [[repr(float(v)) for v in vertex] for vertex in vertices])
                wrote.append("vertices.csv")
    if args.size_trials:
        if args.seed is None:
            raise TradeDataError("--seed is required for --size-trials")
        garp_report, harp_report = forecast_size_paired(
            ts, args.size_trials, args.seed, workers=args.workers
        )
        _write_csv(out / "forecast_size.csv",
                   ["axiom", "trials", "hits", "fraction", "seed"],
                   [[r.axiom, r.trials, r.hits, repr(r.fraction), r.seed]
                    for r in (garp_report, harp_report)])
        print(f"forecast set size: garp {garp_report.fraction!r}, harp {harp_report.fraction!r}")
        wrote.append("forecast_size.csv")
    if not wrote:
        raise TradeDataError("nothing to do: pass --new-price and/or --size-trials")
    print(f"wrote {', '.join(wrote)} to {out}")
    RunManifest("forecast", _manifest_params(
        args, ["omega", "new_price", "expenditure", "size_trials", "seed", "workers"],
        [args.prices, args.quantities])).write(out)
    return EXIT_OK


def _cmd_power(args) -> int:
    ts = _load_panel(args)
    out = _resolve_out(args)
    report = power_estimate(ts, args.trials, args.seed, workers=args.workers)
    print(f"test power: garp {report.w_hat_g!r}, harp {report.w_hat_h!r} ({report.trials} trials)")
    _write_csv(out / "power.csv",
               ["trials", "w_hat_g", "w_hat_h", "seed"],
               [[report.trials, repr(report.w_hat_g), repr(report.w_hat_h), report.seed]])
    RunManifest("power", _manifest_params(args, ["trials", "seed", "workers"],
                                          [args.prices, args.quantities])).write(out)
    return EXIT_OK


def _cmd_groups(args) -> int:
    ts = _load_panel(args)
    out = _resolve_out(args)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip() != ""]
    curve = random_group_probability(ts, sizes, args.samples, args.seed, workers=args.workers)
    rows = [
        [size, samples, repr(pg), repr(ph), skipped]
        for size, samples, pg, ph, skipped in zip(
            curve.sizes, curve.samples, curve.p_garp, curve.p_harp, curve.skipped
        )
    ]
    _write_csv(out / "groups.csv", ["size", "samples", "p_garp", "p_harp", "skipped"], rows)
    print(f"wrote {out / 'groups.csv'} ({len(sizes)} sizes)")
    RunManifest("groups", _manifest_params(args, ["sizes", "samples", "seed", "workers"],
                                           [args.prices, args.quantities])).write(out)
    return EXIT_OK


def _cmd_hierarchy(args) -> int:
    ts = _load_panel(args)
    out = _resolve_out(args)
    tree = parse_partition_tree(Path(args.tree).read_text(encoding="utf-8"))
    report = build_hierarchy(ts, tree, args.omega)
    node_rows = []
    index_rows = []
    for node in report.nodes:
        omega_h = "" if node.omega_h is None else repr(node.omega_h)
        node_rows.append([node.name, len(node.goods), node.status == "ok", omega_h, node.status])
        if node.series is not None:
            for pid, f, q in zip(ts.period_ids, node.series.consumption, node.series.price):
                index_rows.append([node.name, pid, repr(float(f)), repr(float(q))])
    _write_csv(out / "hierarchy_nodes.csv",
               ["name", "size", "harp_pass", "omega_h", "status"], node_rows)
    _write_csv(out / "hierarchy_indices.csv",
               ["node", "period", "consumption_index", "price_index"], index_rows)
    text = render_tree(report)
    (out / "tree.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    RunManifest("hierarchy", _manifest_params(args, ["tree", "omega"],
                                              [args.prices, args.quantities])).write(out)
    return EXIT_OK


def _cmd_fixture(args) -> int:
    if args.name != "appendix2":
        raise TradeDataError(f"unknown fixture {args.name!r}; available: appendix2")
    fix = CounterexampleFixture(epsilon=args.epsilon)
    out = _resolve_out(args)
    ts = fix.statistics()
    _write_statistics_csv(ts, out / "prices.csv", out / "quantities.csv")
    levels = intersection_demands(fix)
    _write_csv(out / "intersection_demands.csv", ["period", "expenditure"],
               [[pid, repr(float(x))] for pid, x in zip(ts.period_ids, levels)])
    cone = gamma_coefficients(ts, 1.0, np.asarray(fix.price_new))
    _write_csv(out / "gamma.csv", ["period", "gamma"],
               [[pid, repr(float(g))] for pid, g in zip(ts.period_ids, cone.gamma)])
    poly = kh_polytope(cone, fix.expenditure_new)
    _write_csv(out / "polytope.csv",
               ["constraint", *poly.variables, "sense", "rhs"],
               [[c.label, *(repr(v) for v in c.coeffs), c.sense, repr(c.rhs)]
                for c in poly.constraints])
    vertices = enumerate_vertices(poly)
    _write_csv(out / "vertices.csv", list(poly.variables),
               [[repr(float(v)) for v in vertex] for vertex in vertices])
    wrote = ["prices.csv", "quantities.csv", "intersection_demands.csv",
             "gamma.csv", "polytope.csv", "vertices.csv"]
    if args.check_inclusion:
        verdict = _check_inclusion(fix, cone, vertices)
        print(verdict)
        (out / "inclusion.txt").write_text(verdict + "\n", encoding="utf-8")
        wrote.append("inclusion.txt")
    print(f"wrote {', '.join(wrote)} to {out}")
    RunManifest("fixture", _manifest_params(args, ["epsilon", "check_inclusion"],
                                            [args.name])).write(out)
    return EXIT_OK


def _check_inclusion(fix: CounterexampleFixture, cone, vertices: np.ndarray) -> str:
    """Verify the homothetic set sits strictly inside the acyclic support set."""
    base = fix.statistics()
    support = fix.intersection_statistics()
    price_new = np.asarray(fix.price_new, dtype=float)
    rng = np.random.default_rng(0)
    inside = [v for v in vertices]
    for _ in range(200):  # random points of the homothetic slice
        weights = rng.dirichlet(np.ones(len(vertices)))
        inside.append(weights @ vertices)
    for point in inside:
        if not kg_membership(support, 1.0, price_new, point):
            return "inclusion FAILED: a homothetic forecast point left the support set"
    strict = _strict_inclusion_witness(fix, cone, base, support, price_new)
    if strict is None:
        return "inclusion holds but no strict witness found"
    return ("homothetic forecasting set is strictly contained in the acyclic support set; "
            f"witness in support set but not homothetic: {np.round(strict, 6).tolist()}")


def _strict_inclusion_witness(fix, cone, base, support, price_new):
    rng = np.random.default_rng(1)
    for _ in range(2000):
        draw = rng.dirichlet(np.ones(base.num_goods)) * fix.expenditure_new
        point = draw / float(price_new @ draw) * fix.expenditure_new
        if kg_membership(support, 1.0, price_new, point) and not kh_membership(cone, base, point):
            return point
    return None


def _cmd_replay(args) -> int:
    manifest = RunManifest.load(args.manifest)
    argv = manifest.to_argv(out_dir=args.out)
    return main(argv)


# ---------------------------------------------------------------------------
# parser


def _add_panel_arguments(parser) -> None:
    parser.add_argument("prices", help="CSV of prices: header of good ids, first column of period ids")
    parser.add_argument("quantities", help="CSV of quantities, same layout as the price table")


def _add_common(parser) -> None:
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: ${OUTPUT_DIR_ENV} or ./konus-out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="konus",
        description="Revealed-preference demand analysis: axiom tests, index numbers, forecasting",
    )
    parser.add_argument("--version", action="version", version=f"konus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="test a panel for axiom consistency")
    _add_panel_arguments(p)
    p.add_argument("--axiom", choices=["garp", "harp", "both"], default="both")
    p.add_argument("--omega", type=float, default=1.0, help="efficiency level (default 1)")
    p.add_argument("--tolerance", type=float, default=0.0, help="comparison slack for noisy data")
    _add_common(p)
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("indices", help="solve multipliers and write the index series")
    _add_panel_arguments(p)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--tolerance", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(handler=_cmd_indices)

    p = sub.add_parser("irrationality", help="compute both irrationality indices")
    _add_panel_arguments(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_irrationality)

    p = sub.add_parser("forecast", help="forecasting cone, polytope slice, and set size")
    _add_panel_arguments(p)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--new-price", default=None, help="comma-separated new price vector")
    p.add_argument("--expenditure", type=float, default=None,
                   help="new-period expenditure for the polytope slice")
    p.add_argument("--size-trials", type=int, default=None,
                   help="Monte Carlo trials for the size measures")
    p.add_argument("--seed", type=int, default=None, help="required with --size-trials")
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=_cmd_forecast)

    p = sub.add_parser("power", help="test power on autoregression-randomized prices")
    _add_panel_arguments(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("groups", help="random-group consistency probabilities by size")
    _add_panel_arguments(p)
    p.add_argument("--sizes", required=True, help="comma-separated group sizes, each at least 2")
    p.add_argument("--samples", type=int, required=True, help="samples per size")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=_cmd_groups)

    p = sub.add_parser("hierarchy", help="analyse a partition tree of good groups")
    _add_panel_arguments(p)
    p.add_argument("--tree", required=True, help="JSON tree: name, children, leaf good lists")
    p.add_argument("--omega", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(handler=_cmd_hierarchy)

    p = sub.add_parser("fixture", help="emit a bundled dataset and its reference outputs")
    p.add_argument("name", help="fixture name: appendix2")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--check-inclusion", action="store_true",
                   help="verify the strict inclusion of the homothetic set in the support set")
    _add_common(p)
    p.set_defaults(handler=_cmd_fixture)

    p = sub.add_parser("replay", help="rerun a command from its manifest")
    p.add_argument("manifest", help="path to a manifest.json written by a previous run")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(handler=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        validate_level(getattr(args, "omega", 1.0), getattr(args, "tolerance", 0.0))
        return args.handler(args)
    except (TradeDataError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleAxiomError as exc:
        print(f"axiom violated: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
