"""Print the sha256 of the four acceptance-scale harness outputs.

Runs ``smaup null``, ``power``, ``size`` and ``effects`` at their acceptance
scale with ``--seed 1``, once with ``--workers 1`` and once with ``--workers
2``, each as a fresh process on the source tree given by ``--src`` (default:
this repository's ``src``). Two trees whose random streams agree print the
same digests; the two worker counts of one tree must agree as well.

    python tools/stream_digest.py [--src PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = {
    "null": ["null", "--n", "100", "--rho", "0", "--replicates", "200"],
    "power": ["power", "--n", "100", "--rhos=0", "--instances", "100"],
    "size": ["size", "--n", "100", "--rhos=0", "--instances", "100"],
    "effects": ["effects", "--cell", "100:12,53,90", "--instances", "10"],
}
WORKERS = (1, 2)


def digest(src: Path, args: list[str], workers: int, out: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "smaup.cli", *args, "--seed", "1",
           "--workers", str(workers), "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that contains the smaup package")
    src = parser.parse_args().src.resolve()
    mismatched = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNS.items():
            digests = [digest(src, args, wk, Path(tmp) / f"{name}-{wk}.json") for wk in WORKERS]
            mismatched |= len(set(digests)) > 1
            for wk, d in zip(WORKERS, digests):
                print(f"{name:<8} workers={wk} {d}")
    if mismatched:
        print("worker counts disagree", file=sys.stderr)
    return int(mismatched)


if __name__ == "__main__":
    sys.exit(main())
