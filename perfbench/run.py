"""Benchmark of the smaup toolkit: Monte Carlo harness throughput and CLI latency.

    python3 perfbench/run.py --workload mc-null --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``src`` is put on the path, so the
package need not be installed. With ``--trace 0`` the run times whole rounds
of the workload for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over round 0 and
reports per-layer counts, self times and the tracing overhead. The last line
of standard output is the result object; the line before it records
provenance, per-round samples and the figures behind the checks.
"""

from __future__ import annotations

import os

# One BLAS thread: first-call eigenvalue timings swing 20x without the pin.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import oracles  # noqa: E402
from speed import Sampler  # noqa: E402
from tracing import CLI_COMMANDS, LAYER_FUNCTIONS, self_times  # noqa: E402
from workloads import WORKLOADS, OperationFailed  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120


class Context:
    def __init__(self, args, smaup):
        self.seed = args.seed
        self.seconds = args.seconds
        self.smaup = smaup
        self.root = ROOT
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.work = HERE / ".work" / args.workload
        self.work.mkdir(parents=True, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)


def provenance(smaup) -> dict:
    import numpy
    import scipy

    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT.resolve():
            commit = head.strip()
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "smaup").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "smaup": smaup.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def measure_setup(ctx, workload) -> list[float]:
    argv = [sys.executable, str(HERE / "probe_setup.py"), *workload.setup_probe()]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = ctx.run(argv)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(ctx, workload, report: dict) -> tuple[dict, int, int, list[str]]:
    samples, outputs, failed = [], [], 0
    with Sampler(ctx.env) as speed:
        setup = measure_setup(ctx, workload)
        start = perf_counter()
        # Closed loop in whole rounds, as many as come nearest to the time budget.
        while not samples or perf_counter() - start + median(samples) / 2 <= ctx.seconds:
            t0 = perf_counter()
            try:
                outputs.append(workload.round(len(samples)))
            except (OperationFailed, ctx.smaup.SmaupError) as exc:
                failed += getattr(exc, "count", 1)
                report.setdefault("failures", []).append(f"round {len(samples)}: {exc}")
            samples.append(perf_counter() - t0)
    problems = workload.check(outputs) if outputs else []
    units = workload.units_per_round * len(outputs)
    # Times are divided by how much slower than the reference the machine ran.
    slowdown = speed.slowdown()
    report.update({
        "rounds": len(samples), "units_per_round": workload.units_per_round, "unit": workload.unit,
        "measured_s": sum(samples), "round_s": samples, "setup_samples_s": setup,
        "speed_samples": len(speed.samples), "slowdown": slowdown,
        "unscaled": {"setup_s": median(setup), "units_per_s": units / sum(samples)},
        "round0_sha256": workload.fingerprint(outputs[0]) if outputs else None,
    })
    metrics = {
        "setup_s": {"value": median(setup) / slowdown, "unit": "s"},
        "units_per_s": {"value": units * slowdown / sum(samples), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    return metrics, len(samples) * workload.ops_per_round, failed, problems


def layer_figures(r: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced round, as (value, unit)."""
    calls, own = self_times(r["layers"].spans)
    counters = r["layers"].counters
    pool = r["pool"].counters if r["pool"] is not None else counters
    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    out["sar.estimate_rho.first_s"] = (counters.get("sar.estimate_rho.first_s", 0.0), "s")
    out["sar.generate_with_target_rho.attempts"] = (
        counters.get("sar.generate_with_target_rho.attempts", 0), "count")
    regions = calls.get("regionalize.random_regions", 0)
    seeds = calls.get("seeding.derive_seed", 0)
    out["seeding.useful_ratio"] = (regions / seeds if seeds else 0.0, "ratio")
    trials, accepted = counters.get("experiments.trials", 0), counters.get("experiments.accepted", 0)
    out["experiments.trials"] = (trials, "count")
    out["experiments.accepted"] = (accepted, "count")
    out["experiments.accept_ratio"] = (accepted / trials if trials else 0.0, "ratio")
    out["experiments.regions_per_accept"] = (regions / accepted if accepted else 0.0, "ratio")
    out["experiments.self_s"] = (sum(v for n, v in own.items() if n.startswith("experiments.")), "s")
    out["experiments.pool.tasks"] = (pool.get("experiments.pool.tasks", 0), "count")
    out["experiments.pool.bytes_sent"] = (pool.get("experiments.pool.bytes_sent", 0), "B")
    out["experiments.pool.bytes_received"] = (pool.get("experiments.pool.bytes_received", 0), "B")
    out["experiments.pool.wait_s"] = (pool.get("experiments.pool.wait_s", 0.0), "s")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_s"] = (own.get(f"cli.{command}", 0.0), "s")
        out[f"cli.{command}.wall_s"] = (r["cli_wall"].get(command, 0.0), "s")
    out["trace.untraced_wall_s"] = (r["untraced"], "s")
    out["trace.overhead_s"] = (r["traced"] - r["untraced"], "s")
    return out


def traced(ctx, workload, report: dict) -> tuple[dict, int, int, list[str]]:
    rounds = []
    start = perf_counter()
    while len(rounds) < 2 or perf_counter() - start < ctx.seconds:
        rounds.append(workload.traced_round())

    # Times are medians over rounds; counts must repeat exactly.
    figures = [layer_figures(r) for r in rounds]
    metrics, problems = {}, []
    for name, (value, unit) in figures[0].items():
        values = [f[name][0] for f in figures]
        if unit == "s":
            value = median(values)
        elif len(set(values)) > 1:
            problems.append(f"{name} differs between traced rounds: {values}")
        metrics[name] = {"value": value, "unit": unit}

    last = rounds[-1]["layers"]
    last.dump(ctx.work / "spans.jsonl")
    report.update({"traced_rounds": len(rounds), "spans_per_round": len(last.spans),
                   "spans_file": str((ctx.work / "spans.jsonl").relative_to(ROOT))})
    return metrics, len(rounds) * workload.traced_passes * workload.ops_per_round, 0, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "smaup" / "__init__.py").is_file():
        print(f"error: no smaup sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import smaup

    if Path(smaup.__file__).resolve().parent != (SRC / "smaup").resolve():
        print(f"error: imported smaup from {smaup.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ctx = Context(args, smaup)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(smaup), "workers": ctx.workers}
    problems = [f"oracle self-test: {p}" for p in oracles.self_test()]
    problems += oracles.layer_checks(smaup, args.seed)

    workload = WORKLOADS[args.workload](ctx)
    workload.prepare()
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, found = run(ctx, workload, report)
    problems += found
    report["details"] = workload.details
    report["problems"] = problems
    print(json.dumps(report))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
