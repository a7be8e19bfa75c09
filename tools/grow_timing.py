"""Time region growth on two source trees side by side, in two steps.

The two steps are what the harnesses ask of ``experiments``: ``partition``
grows PARTITIONS partitions one at a time with ``_partitions``, as the
acceptance filter does, and ``effects`` takes the labels and region sizes
of all PARTITIONS partitions of one stream at once with
``_partition_block``, as the effects harness does; a tree without
``_partition_block`` stacks what ``_partitions`` yields. For every rook
lattice of N areas, N in SIZES, and every k = round(f * N), f in FRACTIONS,
both trees run both steps on the same stream, for ROUNDS rounds. Each tree
runs in one long-lived process, and the two take turns cell by cell, the
first to go alternating from round to round, so a change in the machine's
speed falls on both sides of a pair. A lattice, its connectivity check and
its cached neighbor data are built and warmed before the clock first starts
on it, so the figures are growth alone. Prints, per step and (N, k),
microseconds per partition of each tree as the median [lower quartile,
upper quartile] over rounds, and the same summary of the per-round ratio of
the first tree's time to the second's (above 1: the second is faster)::

    python tools/grow_timing.py --src ../parent/src --src src
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

SIZES = (25, 100, 400, 900, 2025)
FRACTIONS = (0.1, 0.5, 0.9)
ROUNDS = 21
PARTITIONS = 30  # per cell and round

STEPS = ("partition", "effects")

_CHILD = """
import json, sys
from time import perf_counter
import numpy as np
from smaup.experiments import _partitions, lattice_for_area_count

try:
    from smaup.experiments import _partition_block
except ImportError:
    def _partition_block(w, k, seed_path, r):
        return tuple(map(np.stack, zip(*_partitions(w, k, seed_path, r))))

def partition(w, k, seed_path, r):
    for _ in _partitions(w, k, seed_path, r):
        pass

steps = {"partition": partition, "effects": _partition_block}
lattices = {}
for line in sys.stdin:
    step, n, k, partitions, rnd = json.loads(line)
    if n not in lattices:
        lattices[n] = w = lattice_for_area_count(n)
        for warm in steps.values():
            warm(w, k, (n, k), 1)
    start = perf_counter()
    steps[step](lattices[n], k, (rnd, n, k), partitions)
    print((perf_counter() - start) / partitions * 1e6, flush=True)
"""


def start_tree(src: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OMP_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", _CHILD], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def time_cell(proc: subprocess.Popen, step: str, n: int, k: int, partitions: int, rnd: int) -> float:
    proc.stdin.write(json.dumps([step, n, k, partitions, rnd]) + "\n")
    proc.stdin.flush()
    return float(proc.stdout.readline())


def summary(samples: list[float], fmt: str = ".1f") -> str:
    q1, _, q3 = quantiles(samples, n=4)
    return f"{median(samples):{fmt}} [{q1:{fmt}}, {q3:{fmt}}]"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a tree's src directory; give exactly two")
    args = parser.parse_args()
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    cells = [(step, n, int(f * n + 0.5)) for step in STEPS for n in SIZES for f in FRACTIONS]
    samples = [[[] for _ in cells] for _ in args.src]
    procs = [start_tree(src) for src in args.src]
    try:
        for rnd in range(ROUNDS):
            for c, cell in enumerate(cells):
                for t in (0, 1) if (rnd + c) % 2 == 0 else (1, 0):
                    samples[t][c].append(time_cell(procs[t], *cell, PARTITIONS, rnd))
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    a, b = args.src
    print(f"us per partition, median [quartiles] of {ROUNDS} rounds x {PARTITIONS} partitions")
    print(f"A = {a}\nB = {b}")
    print("| step | N | k | A | B | A/B |\n| --- | --- | --- | --- | --- | --- |")
    for (step, n, k), sa, sb in zip(cells, *samples):
        ratios = [x / y for x, y in zip(sa, sb)]
        print(f"| {step} | {n} | {k} | {summary(sa)} | {summary(sb)} | {summary(ratios, '.2f')} |")


if __name__ == "__main__":
    main()
