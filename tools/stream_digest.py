"""Print the sha256 of the four acceptance-scale harness outputs and of their payloads.

Runs ``smaup null``, ``power``, ``size`` and ``effects`` at their acceptance
scale with ``--seed 1``, once with ``--workers 1`` and once with ``--workers
2``, each as a fresh process on the source tree given by ``--src`` (default:
this repository's ``src``). Two trees whose random streams agree print the
same digests; the two worker counts of one tree must agree as well.

Next to each whole-file digest it prints a payload digest: the sha256 of the
output's stream-bearing key (``values`` of the null, ``cells`` of power, size
and effects) as compact, key-sorted JSON. A change to the artifact's other
keys moves the whole-file digest but not the payload digest. Each line also
names the ``stream_version`` the artifact records (top-level, or in the
effects ``metadata``; ``-`` where it records none).

    python tools/stream_digest.py [--src PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def digest(src: Path, args: list[str], workers: int, out: Path) -> tuple[str, str, str]:
    """Stream version, whole-file and payload sha256 of one run's output."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "smaup.cli", *args, "--seed", "1",
           "--workers", str(workers), "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    data = out.read_bytes()
    doc = json.loads(data)
    payload = json.dumps(doc["values" if "values" in doc else "cells"], sort_keys=True,
                         separators=(",", ":"))
    version = doc.get("stream_version", doc.get("metadata", {}).get("stream_version", "-"))
    return str(version), hashlib.sha256(data).hexdigest(), hashlib.sha256(payload.encode()).hexdigest()


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
            for wk, (version, whole, payload) in zip(WORKERS, digests):
                print(f"{name:<8} workers={wk} stream_version={version} {whole} payload={payload}")
    if mismatched:
        print("worker counts disagree", file=sys.stderr)
    return int(mismatched)


if __name__ == "__main__":
    sys.exit(main())
