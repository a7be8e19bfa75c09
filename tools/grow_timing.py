"""Time region growth, ``experiments._partitions``, on two source trees side by side.

For every rook lattice of N areas, N in SIZES, and every k = round(f * N),
f in FRACTIONS, both trees grow the same PARTITIONS partitions per round,
for ROUNDS rounds. Each tree runs in one long-lived process, and the two
take turns cell by cell, the first to go alternating from round to round,
so a change in the machine's speed falls on both sides of a pair. A
lattice, its connectivity check and its cached neighbor data are built and
warmed by one partition before the clock first starts on it, so the figures
are growth alone. Prints, per (N, k), microseconds per partition of each tree
as the median [lower quartile, upper quartile] over rounds, and the same
summary of the per-round ratio of the first tree's time to the second's
(above 1: the second is faster)::

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

SIZES = (100, 400, 900, 2025)
FRACTIONS = (0.1, 0.5, 0.9)
ROUNDS = 21
PARTITIONS = 30  # per cell and round

_CHILD = """
import json, sys
from time import perf_counter
from smaup.experiments import _partitions, lattice_for_area_count

lattices = {}
for line in sys.stdin:
    n, k, partitions, rnd = json.loads(line)
    if n not in lattices:
        lattices[n] = w = lattice_for_area_count(n)
        for _ in _partitions(w, k, (n, k), 1):
            pass
    start = perf_counter()
    for _ in _partitions(lattices[n], k, (rnd, n, k), partitions):
        pass
    print((perf_counter() - start) / partitions * 1e6, flush=True)
"""


def start_tree(src: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OMP_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", _CHILD], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def time_cell(proc: subprocess.Popen, n: int, k: int, partitions: int, rnd: int) -> float:
    proc.stdin.write(json.dumps([n, k, partitions, rnd]) + "\n")
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
    cells = [(n, int(f * n + 0.5)) for n in SIZES for f in FRACTIONS]
    samples = [[[] for _ in cells] for _ in args.src]
    procs = [start_tree(src) for src in args.src]
    try:
        for rnd in range(ROUNDS):
            for c, (n, k) in enumerate(cells):
                for t in (0, 1) if (rnd + c) % 2 == 0 else (1, 0):
                    samples[t][c].append(time_cell(procs[t], n, k, PARTITIONS, rnd))
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    a, b = args.src
    print(f"us per partition, median [quartiles] of {ROUNDS} rounds x {PARTITIONS} partitions")
    print(f"A = {a}\nB = {b}")
    print("| N | k | A | B | A/B |\n| --- | --- | --- | --- | --- |")
    for (n, k), sa, sb in zip(cells, *samples):
        ratios = [x / y for x, y in zip(sa, sb)]
        print(f"| {n} | {k} | {summary(sa)} | {summary(sb)} | {summary(ratios, '.2f')} |")


if __name__ == "__main__":
    main()
