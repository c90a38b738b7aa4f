"""Run one konus benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload panel_reports --seed 1 --seconds 30 --trace 0

Without ``--workload`` it runs every workload in turn, each in its own process.

Builds nothing: konus is imported from ``src/`` of the checkout this file
sits in.  Set-up (import, seeded panel generation, CSV writing, one warm-up
operation per kind) is timed in fresh child processes and reported as the
median.  Then whole passes of the workload run until ``--seconds`` is used up
(at least one pass), every output is checked, and the last line of standard
output is one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``).  A result file stamped with
the environment goes to ``benchmarks/results/``.

``--capture-reference`` reruns one pass of every workload at the default seed
and rewrites ``benchmarks/reference.json``, the outputs later runs at that
seed must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("panel_reports", "monte_carlo", "membership_stream")

SETUP_SAMPLES = 9
MEASURE_DEADLINE_S = 120.0  # no further pass starts after this, whatever --seconds says

# End-to-end metrics on the last line: the figures every workload has, never zero.
END_TO_END = ("setup_s", "ops_per_s", "peak_rss_mb")


def import_konus():
    """Import konus from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import konus
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import konus from {SRC}: {exc}")
    if not Path(konus.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: konus was imported from {konus.__file__}, not from {SRC}")
    return konus


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="konus benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--capture-reference", action="store_true")
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None and args.workload is None:
        parser.error("--setup-probe needs --workload")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment stamp


def cpu_description() -> dict:
    info: dict = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key in ("model name", "cache size") and key not in info:
                info[key] = value.strip()
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / name).read_text().strip() for name in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    info["caches"] = caches
    return info


def git_commit() -> str | None:
    """Commit of the checkout; None when it is not a git repository of its own."""
    if not (ROOT / ".git").exists():
        return None  # else git would report an enclosing repository's commit
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(args, konus, numpy) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "konus": konus.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_description(),
        "git_commit": git_commit(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# set-up


def prepare(workloads, name: str, seed: int, workdir: Path):
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.setup()
    workload.warm_up()
    return workload


def setup_probe(args) -> None:
    """Child process: set up once, report seconds since the parent spawned it."""
    import_konus()
    import workloads

    workdir = WORK / f"setup-{os.getpid()}"
    try:
        prepare(workloads, args.workload, args.seed, workdir)
        elapsed = time.time() - args.setup_probe
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"setup_s {elapsed!r}")


def setup_seconds(args) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-probe", repr(time.time())]
        child = subprocess.run(command, capture_output=True, text=True, timeout=170)
        if child.returncode != 0:
            sys.exit(f"benchmark: set-up failed:\n{child.stderr}")
        samples.append(float(child.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# measuring


def measure(workload, seconds: float, tracer=None) -> list:
    """Whole passes until the time is used up, rounded to the nearest pass count."""
    passes = []
    started = time.perf_counter()
    while True:
        lo = tracer.mark() if tracer else 0
        pass_started = time.perf_counter()
        result = workload.run_pass()
        result.wall = time.perf_counter() - pass_started
        if tracer is not None:
            result.layers = tracer.layer_stats(lo, tracer.mark())
            result.op_counts = tracer.op_counts(lo, tracer.mark())
        passes.append(result)
        elapsed = time.perf_counter() - started
        typical = statistics.median(p.wall for p in passes)
        if elapsed + typical / 2 > seconds or elapsed > MEASURE_DEADLINE_S:
            return passes


def rate(passes) -> float:
    return statistics.median(p.ops / p.seconds for p in passes)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def summary(passes, setup: list[float]) -> dict:
    """Every end-to-end figure of untraced passes, also those only one workload has."""
    figures = {
        "ops_per_s": (rate(passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (sum(p.failed for p in passes) / sum(p.ops for p in passes), "ratio"),
        "pass_s": (statistics.median(p.wall for p in passes), "s"),
    }
    if setup:
        figures["setup_s"] = (statistics.median(setup), "s")
    latencies = [x for p in passes for x in p.latencies]
    if latencies:
        figures["op_p50_ms"] = (percentile(latencies, 50) * 1e3, "ms")
        figures["op_p90_ms"] = (percentile(latencies, 90) * 1e3, "ms")
        figures["op_samples"] = (len(latencies), "count")
    for kind in sorted({k for p in passes for k in p.command_seconds}):
        figures[f"cli_{kind}_s"] = (statistics.median(p.command_seconds.get(kind, 0.0) for p in passes), "s")
    return figures


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.setup_probe is not None:
        return setup_probe(args)
    if args.workload is None and not args.capture_reference:
        return run_all(args)
    konus = import_konus()
    import numpy

    import tracing
    import workloads

    if args.capture_reference:
        return capture_reference(workloads)
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    setup = [] if args.trace else setup_seconds(args)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    record = {"stamp": stamp(args, konus, numpy)}
    try:
        workload = prepare(workloads, args.workload, args.seed, workdir)
        if args.seed == workloads.DEFAULT_SEED:
            problems = workloads.comparator_problems()
            if problems:
                sys.exit("benchmark: the reference comparison is broken:\n" + "\n".join(problems))
            workload.reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]
        if args.trace:
            untraced = measure(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            workload.tracer = tracer
            try:
                traced = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            figures = summary(untraced, setup)
            metrics = layer_metrics(tracing, untraced, traced)
            record["absent_boundaries"] = tracer.absent
            record["op_counts"] = [p.op_counts for p in traced]
            RESULTS.mkdir(parents=True, exist_ok=True)
            spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.npz"
            tracer.save(spans)
            record["spans_file"] = spans.name
        else:
            passes = measure(workload, args.seconds)
            figures = summary(passes, setup)
            metrics = {name: figures[name] for name in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    record.update({
        "figures": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "setup_samples_s": setup,
        "passes": [{"wall_s": p.wall, "timed_s": p.seconds, "ops": p.ops, "failed": p.failed,
                    "command_seconds": p.command_seconds} for p in passes],
        "problems": [msg for p in passes for msg in p.problems][:50],
    })
    RESULTS.mkdir(parents=True, exist_ok=True)
    result_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    for message in record["problems"][:10]:
        print(f"FAILED {message}")
    for name, (value, unit) in figures.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    if args.trace:
        for name in tracer.absent:
            print(f"{args.workload} boundary {name} is absent")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))


def run_all(args) -> None:
    """Every workload in a fresh process of its own, output passed through."""
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        sys.stdout.flush()
        if subprocess.run(command).returncode != 0:
            sys.exit(f"benchmark: workload {name} failed")


def layer_metrics(tracing, untraced, traced) -> dict:
    metrics = {name: (statistics.median(p.layers[name] for p in traced), unit)
               for name, (unit, _) in tracing.LAYER_METRICS.items()}
    plain, slowed = rate(untraced), rate(traced)
    metrics["trace.untraced_ops_per_s"] = (plain, "1/s")
    metrics["trace.traced_ops_per_s"] = (slowed, "1/s")
    metrics["trace.overhead_pct"] = ((plain / slowed - 1.0) * 100.0, "%")
    return metrics


def capture_reference(workloads) -> None:
    reference = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        workdir = WORK / f"reference-{name}-{os.getpid()}"
        try:
            result = prepare(workloads, name, workloads.DEFAULT_SEED, workdir).run_pass()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result.failed:
            sys.exit(f"benchmark: {name} fails its checks, no reference written:\n"
                     + "\n".join(result.problems))
        reference["workloads"][name] = result.outputs
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
