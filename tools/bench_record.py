"""Record benchmark figures of a parent and a change tree into ``BENCH_<n>.json``.

Runs ``perfbench/run.py`` as a fresh process for every workload x seed x
tree, untraced, and once traced (first seed) per workload and tree, for the
``run_seconds`` of ``BENCHMARK.json``, then writes ``BENCH_<n>.json`` at the
repository root with:

- per workload and tree, the median and quartiles of each end-to-end metric
  (``units_per_s``, ``setup_s``, ``peak_rss_mb``) over seeds, with the
  per-seed samples, correctness, attempted/failed counts and the round-0
  SHA-256 of every run;
- the traced per-layer metrics;
- per metric, the number of seeds on which the change beat the parent, in
  the direction ``BENCHMARK.json`` declares;
- per end-to-end metric, the change/parent median ratio and whether the
  change is worse than the parent by more than the metric's ``bound`` (a
  fraction of the parent's median, in the declared direction), and at the
  top level every ``workload.metric`` that is;
- provenance of each tree: git commit and whether its ``src`` differs from
  that commit, SHA-256 of ``src/smaup/*.py``, nproc, Python/numpy/scipy.

Each tree is a source checkout holding ``perfbench/`` and ``src/``; the two
trees alternate in order from seed to seed, so slow drift of the machine
falls on both. For example, a parent checkout against this one::

    python tools/bench_record.py --number N --seeds 1-10 \\
        --parent ../parent --change .
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its report and result lines, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return {"report": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def tree_provenance(tree: Path, report: dict) -> dict:
    prov = dict(report["provenance"])
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=tree,
                            capture_output=True, text=True)
    prov["src_matches_commit"] = (
        None if prov.get("git_commit") is None or status.returncode != 0
        else not status.stdout.strip())
    return prov


def verdict(parent: float, change: float, better: str, bound: float) -> dict:
    """Change/parent median ratio, and whether the change is worse than the
    parent by more than ``bound``, a fraction of the parent's median."""
    ratio = change / parent
    worse_by = 1 - ratio if better == "higher" else ratio - 1
    return {"ratio": ratio, "worse_by": worse_by, "bound": bound,
            "worse_than_bound": worse_by > bound}


def summary(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "samples": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True,
                        help="N of the output file BENCH_N.json")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="seeds, e.g. 1-10 or 1,3,5 (default 1-10)")
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds, trace_seed = spec["run_seconds"], args.seeds[0]
    out_path = ROOT / f"BENCH_{args.number}.json"

    doc = {"number": args.number, "seconds": seconds, "seeds": args.seeds,
           "trace_seed": trace_seed, "trees": {}, "workloads": {}}
    for workload in workloads:
        runs: dict[str, list[dict]] = {label: [] for label in trees}
        for i, seed in enumerate(args.seeds):
            order = list(trees.items())
            for label, tree in order if i % 2 == 0 else order[::-1]:
                print(f"{workload} seed {seed} {label}", file=sys.stderr, flush=True)
                runs[label].append(run_perfbench(tree, workload, seed, seconds, 0))
        entry = {}
        for label, tree in trees.items():
            print(f"{workload} traced {label}", file=sys.stderr, flush=True)
            traced = run_perfbench(tree, workload, trace_seed, seconds, 1)
            doc["trees"].setdefault(label, tree_provenance(tree, runs[label][0]["report"]))
            results = [r["result"] for r in runs[label]]
            entry[label] = {
                "end_to_end": {
                    name: dict(summary([r["metrics"][name]["value"] for r in results]),
                               unit=results[0]["metrics"][name]["unit"])
                    for name in better
                },
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "round0_sha256": [r["report"]["round0_sha256"] for r in runs[label]],
                "source_sha256": sorted({r["report"]["provenance"]["source_sha256"]
                                         for r in runs[label]}),
                "layers": {name: m["value"] for name, m in traced["result"]["metrics"].items()},
                "layers_correct": traced["result"]["correct"],
            }
        parent, change = entry["parent"]["end_to_end"], entry["change"]["end_to_end"]
        entry["change_beats_parent"] = {
            name: sum((b > a) if better[name] == "higher" else (b < a)
                      for a, b in zip(parent[name]["samples"], change[name]["samples"]))
            for name in better
        }
        entry["verdict"] = {
            name: verdict(parent[name]["median"], change[name]["median"], better[name], bound[name])
            for name in better
        }
        doc["workloads"][workload] = entry
    doc["worse_than_bound"] = [f"{workload}.{name}"
                               for workload, entry in doc["workloads"].items()
                               for name, v in entry["verdict"].items() if v["worse_than_bound"]]
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
