"""Speed sampler: how fast the shared machine ran while the benchmark ran.

On the shared 2-core machine the reference figures come from, the same code
runs at one of two speeds, switching about once a second: a fixed piece of
work takes near 7 ms or near 12 ms of CPU time. The share of time spent in
the slow state drifts over minutes, so a run's throughput moved by up to a
third between runs of the same code. A sampler process times a fixed piece
of work in CPU seconds every ``PERIOD_S`` for the whole run, taking about 5%
of one core; the mean sample over ``REFERENCE_S`` is how much slower than the
reference speed the machine ran, and the run's times are divided by it.
CPU time, not wall time, so that waiting for a core the workload holds does
not count as a slow machine.

    python3 perfbench/speed.py    # samples until standard input closes
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
from pathlib import Path
from time import process_time

import numpy as np

# CPU seconds of one sample at the reference speed: a round figure inside
# the 7-12 ms the samples took on the machine of the reference figures.
REFERENCE_S = 0.01
PERIOD_S = 0.2

_X = np.random.default_rng(12345).standard_normal(100)
_GROUPS = np.arange(100) % 7


def _work() -> float:
    # interpreter work on small sets and lists plus small numpy calls: the
    # mix the Monte Carlo harness and the CLI spend their time in
    acc = 0.0
    for i in range(700):
        frontier = set(range(i % 50, i % 50 + 40))
        frontier.difference_update([j for j in frontier if j % 5 == 0])
        ordered = sorted(frontier)
        acc += ordered[len(ordered) // 2]
        acc += float(np.abs(_X - _X.mean()).sum())
        acc += float(np.bincount(_GROUPS, weights=_X)[i % 7])
    return acc


class Sampler:
    """Runs this file as a sampler process for the life of a ``with`` block."""

    def __init__(self, env: dict):
        self._env = env
        self.samples: list[float] = []

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], env=self._env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._proc.stdout.readline()  # started and warmed up
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise
        self.samples = json.loads(out)
        return False

    def slowdown(self) -> float:
        """Mean sample over the reference: 1.25 means 25% slower."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S


def main() -> None:
    _work()  # warm-up, not recorded
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = process_time()
        _work()
        samples.append(process_time() - start)
    start = process_time()
    _work()
    samples.append(process_time() - start)
    print(json.dumps(samples))


if __name__ == "__main__":
    main()
