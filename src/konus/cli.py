"""Command-line driver: axiom tests, indices, forecasting, experiments, fixtures.

Handlers compute and ``main`` writes.  Each ``_cmd_*`` handler returns its
exit code and the files of its run; ``main`` then creates the output
directory, writes the files in order and, last, a ``manifest.json`` that
records every parsed option.  A command that fails writes nothing.
``konus replay manifest.json`` reruns a run and reproduces its outputs byte
for byte, from any working directory: the manifest stores relative input
paths from its own directory.  Randomized commands require an explicit
``--seed``.  Exit codes: 0 success, 1 axiom violated, 2 input error,
3 internal error.
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
from .core import TradeDataError, TradeStatistics, load_trade_statistics, validate_level
from .forecast import (
    VERTEX_ENUMERATION_MAX_DIM,
    CounterexampleFixture,
    ForecastCone,
    check_inclusion,
    enumerate_vertices,
    forecast_size_paired,
    gamma_coefficients,
    intersection_demands,
    kh_polytope,
)
from .hierarchy import build_hierarchy, parse_partition_tree, render_tree
from .irrationality import garp_irrationality, harp_irrationality
from .econometrics import power_estimate, random_group_probability

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

OUTPUT_DIR_ENV = "KONUS_OUT"

# A run's files in write order: a CSV as ``(header, rows)``, a text file as its text.
Files = dict[str, tuple[list[str], list[list]] | str]
# Parsed arguments the manifest lists under ``positional``, in command-line order.
_POSITIONAL = ("name", "prices", "quantities")
# Parsed arguments that name input files; the manifest stores a relative one from its own directory.
_INPUT_PATHS = ("prices", "quantities", "tree")


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
    def from_args(cls, args: argparse.Namespace, out_dir: Path) -> "RunManifest":
        """Every parsed option but the dispatch fields and ``--out``, ``None`` values dropped.

        A relative input path is rewritten relative to ``out_dir``, where the
        manifest goes, between resolved paths so that a symlinked directory
        cannot misdirect the ``..`` steps; an absolute one is kept as given.
        """
        options = {key: value for key, value in vars(args).items()
                   if key not in ("command", "handler", "out") and value is not None}
        for key in _INPUT_PATHS:
            if key in options and not os.path.isabs(options[key]):
                options[key] = os.path.relpath(os.path.realpath(options[key]), os.path.realpath(out_dir))
        params = {key: value for key, value in options.items() if key not in _POSITIONAL}
        params["positional"] = [options[key] for key in _POSITIONAL if key in options]
        return cls(args.command, params)

    @classmethod
    def load(cls, path) -> "RunManifest":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not (isinstance(data, dict) and isinstance(data.get("command"), str)
                and data["command"] != "replay"
                and isinstance(data.get("params"), dict) and isinstance(data.get("out_dir", ""), str)
                and isinstance(data["params"].get("positional", []), list)):
            raise TradeDataError(f"{path} is not a run manifest: it needs a command string other than "
                                 "replay and a params object, and any out_dir must be a string and any "
                                 "positional a list")
        params = dict(data["params"])
        params.pop("workers", None)  # older runs stored a chunk count that no output ever depended on
        return cls(command=data["command"], params=params,
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
# output tables


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_files(out: Path, files: Files) -> None:
    """Create ``out`` and write ``files`` in order: a CSV per table, text as is."""
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if isinstance(content, str):
            (out / name).write_text(content, encoding="utf-8")
        else:
            _write_csv(out / name, *content)


def _panel_files(ts: TradeStatistics) -> Files:
    """``prices.csv`` and ``quantities.csv`` in the layout the commands read."""
    header = ["period", *ts.good_ids]
    return {
        name: (header, [[pid, *(repr(float(v)) for v in row)] for pid, row in zip(ts.period_ids, table)])
        for name, table in (("prices.csv", ts.prices), ("quantities.csv", ts.quantities))
    }


def _cone_files(ts: TradeStatistics, cone: ForecastCone,
                expenditure: float | None) -> tuple[Files, np.ndarray | None]:
    """``gamma.csv``, and with an expenditure the polytope slice and its vertices.

    Vertices are enumerated only up to ``VERTEX_ENUMERATION_MAX_DIM`` goods;
    they are returned too, or ``None`` where they were not enumerated.
    """
    files: Files = {"gamma.csv": (["period", "gamma"],
                                  [[pid, repr(float(g))] for pid, g in zip(ts.period_ids, cone.gamma)])}
    vertices = None
    if expenditure is not None:
        poly = kh_polytope(cone, expenditure)
        files["polytope.csv"] = (["constraint", *poly.variables, "sense", "rhs"],
                                 [[c.label, *(repr(v) for v in c.coeffs), c.sense, repr(c.rhs)]
                                  for c in poly.constraints])
        if ts.num_goods <= VERTEX_ENUMERATION_MAX_DIM:
            vertices = enumerate_vertices(poly)
            files["vertices.csv"] = (list(poly.variables),
                                     [[repr(float(v)) for v in vertex] for vertex in vertices])
    return files, vertices


def _format_witness(ts: TradeStatistics, witness: GarpWitness | HarpWitness) -> str:
    if isinstance(witness, GarpWitness):
        chain = " -> ".join(ts.period_ids[i] for i in witness.chain)
        s, t = witness.comparison
        return (f"chain {chain}; closing comparison fails: "
                f"expenditure({ts.period_ids[s]}) > {witness.omega} * cross value"
                f"({ts.period_ids[s]}, {ts.period_ids[t]})")
    cycle = " -> ".join(ts.period_ids[i] for i in witness.cycle)
    return (f"cycle {cycle} -> {ts.period_ids[witness.cycle[0]]}; "
            f"product {witness.product!r} exceeds omega^{len(witness.cycle)}")


def _load_panel(args) -> TradeStatistics:
    return load_trade_statistics(args.prices, args.quantities)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(part) for part in text.split(",") if part.strip() != ""])
    except ValueError:
        raise TradeDataError(f"unparseable vector {text!r}; expected comma-separated numbers") from None


# ---------------------------------------------------------------------------
# command handlers: each computes and returns its exit code and its files


def _cmd_test(args, out: Path) -> tuple[int, Files]:
    ts = _load_panel(args)
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
    files = {"verdicts.csv": (["axiom", "omega", "status", "witness"], rows)}
    return (EXIT_VIOLATED if violated else EXIT_OK), files


def _cmd_indices(args, out: Path) -> tuple[int, Files]:
    ts = _load_panel(args)
    lm = solve_harp_multipliers(ts, args.omega, tol=args.tolerance)
    series = konus_divisia_series(ts, lm)
    rows = [
        [pid, repr(float(f)), repr(float(q))]
        for pid, f, q in zip(ts.period_ids, series.consumption, series.price)
    ]
    print(f"wrote {out / 'index_series.csv'} ({ts.num_periods} periods)")
    return EXIT_OK, {"index_series.csv": (["period", "consumption_index", "price_index"], rows)}


def _cmd_irrationality(args, out: Path) -> tuple[int, Files]:
    ts = _load_panel(args)
    omega_h = harp_irrationality(ts)
    omega_g, attained_g = garp_irrationality(ts)
    attained = "attained" if attained_g else "not attained"
    print(f"acyclicity index omega_G = {omega_g!r} ({attained})")
    print(f"homotheticity index omega_H = {omega_h!r}")
    return EXIT_OK, {"irrationality.csv": (
        ["omega_g", "attained_g", "omega_h"], [[repr(omega_g), attained_g, repr(omega_h)]])}


def _cmd_forecast(args, out: Path) -> tuple[int, Files]:
    if args.expenditure is not None and not args.new_price:
        raise TradeDataError("--expenditure needs --new-price")
    ts = _load_panel(args)
    files: Files = {}
    if args.new_price:
        cone = gamma_coefficients(ts, args.omega, _parse_vector(args.new_price))
        files, _ = _cone_files(ts, cone, args.expenditure)
    if args.size_trials:
        if args.seed is None:
            raise TradeDataError("--seed is required for --size-trials")
        garp_report, harp_report = forecast_size_paired(ts, args.size_trials, args.seed)
        files["forecast_size.csv"] = (["axiom", "trials", "hits", "fraction", "seed"],
                                      [[r.axiom, r.trials, r.hits, repr(r.fraction), r.seed]
                                       for r in (garp_report, harp_report)])
        print(f"forecast set size: garp {garp_report.fraction!r}, harp {harp_report.fraction!r}")
    if not files:
        raise TradeDataError("nothing to do: pass --new-price and/or --size-trials")
    print(f"wrote {', '.join(files)} to {out}")
    return EXIT_OK, files


def _cmd_power(args, out: Path) -> tuple[int, Files]:
    ts = _load_panel(args)
    report = power_estimate(ts, args.trials, args.seed)
    print(f"test power: garp {report.w_hat_g!r}, harp {report.w_hat_h!r} ({report.trials} trials)")
    return EXIT_OK, {"power.csv": (["trials", "w_hat_g", "w_hat_h", "seed"],
                                   [[report.trials, repr(report.w_hat_g), repr(report.w_hat_h), report.seed]])}


def _cmd_groups(args, out: Path) -> tuple[int, Files]:
    ts = _load_panel(args)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip() != ""]
    curve = random_group_probability(ts, sizes, args.samples, args.seed)
    rows = [
        [size, samples, repr(pg), repr(ph), skipped]
        for size, samples, pg, ph, skipped in zip(
            curve.sizes, curve.samples, curve.p_garp, curve.p_harp, curve.skipped
        )
    ]
    print(f"wrote {out / 'groups.csv'} ({len(sizes)} sizes)")
    return EXIT_OK, {"groups.csv": (["size", "samples", "p_garp", "p_harp", "skipped"], rows)}


def _cmd_hierarchy(args, out: Path) -> tuple[int, Files]:
    ts = _load_panel(args)
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
    text = render_tree(report)
    print(text)
    return EXIT_OK, {
        "hierarchy_nodes.csv": (["name", "size", "harp_pass", "omega_h", "status"], node_rows),
        "hierarchy_indices.csv": (["node", "period", "consumption_index", "price_index"], index_rows),
        "tree.txt": text + "\n",
    }


def _cmd_fixture(args, out: Path) -> tuple[int, Files]:
    if args.name != "appendix2":
        raise TradeDataError(f"unknown fixture {args.name!r}; available: appendix2")
    fix = CounterexampleFixture(epsilon=args.epsilon)
    ts = fix.statistics()
    files = _panel_files(ts)
    files["intersection_demands.csv"] = (["period", "expenditure"],
                                         [[pid, repr(float(x))]
                                          for pid, x in zip(ts.period_ids, intersection_demands(fix))])
    cone = gamma_coefficients(ts, 1.0, np.asarray(fix.price_new))
    cone_files, vertices = _cone_files(ts, cone, fix.expenditure_new)
    files.update(cone_files)
    if args.check_inclusion:
        verdict = check_inclusion(fix, cone, vertices)
        print(verdict)
        files["inclusion.txt"] = verdict + "\n"
    print(f"wrote {', '.join(files)} to {out}")
    return EXIT_OK, files


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
    _add_common(p)
    p.set_defaults(handler=_cmd_forecast)

    p = sub.add_parser("power", help="test power on autoregression-randomized prices")
    _add_panel_arguments(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("groups", help="random-group consistency probabilities by size")
    _add_panel_arguments(p)
    p.add_argument("--sizes", required=True, help="comma-separated group sizes, each at least 2")
    p.add_argument("--samples", type=int, required=True, help="samples per size")
    p.add_argument("--seed", type=int, required=True)
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            manifest = Path(args.manifest)
            args = parser.parse_args(RunManifest.load(manifest).to_argv(out_dir=args.out))
            for key in _INPUT_PATHS:  # relative to the manifest's directory; an absolute path stays
                if getattr(args, key, None) is not None:
                    setattr(args, key, os.path.join(manifest.parent, getattr(args, key)))
        validate_level(getattr(args, "omega", 1.0), getattr(args, "tolerance", 0.0))
        out = Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or "konus-out")
        blocking = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
        if blocking is not None:
            raise TradeDataError(f"cannot make output directory {out}: {blocking} is not a directory")
        code, files = args.handler(args, out)
        _write_files(out, files)
        RunManifest.from_args(args, out).write(out)
        return code
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
