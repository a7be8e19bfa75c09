"""Benchmark inputs, made from the workload seed alone.

The CLI workload reads a GeoJSON grid of square polygons whose features are
shuffled, so that feature order differs from grid order, and a values field
drawn at rho = 0.5 by this file's own sparse solve of (I - rho W) y = eps.
The Monte Carlo workloads take only master seeds.

Regenerate the stored CLI inputs of a seed with

    python3 perfbench/inputs.py --seed 1 --out perfbench/.work/inputs
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

# 45 x 45 = 2025 polygons: below the 2500 areas where generate_sar leaves
# the dense solve, so the CLI runs the dense path and the O(N^3) eigenvalues.
GRID_SIDE = 45
VALUES_RHO = 0.5
SIMULATE_RHO = 0.5

# Tags that keep the benchmark's seed streams apart.
_TAG_ROUND, _TAG_PERM, _TAG_VALUES, _TAG_K, _TAG_SIMULATE = range(5)


def derive(seed: int, *path: int) -> int:
    """A 63-bit seed for ``path`` under the workload seed."""
    ss = np.random.SeedSequence([0x5EED, int(seed), *map(int, path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def round_seed(seed: int, round_index: int) -> int:
    """Master seed handed to the program for one Monte Carlo round."""
    return derive(seed, _TAG_ROUND, round_index)


def rook_neighbors(side: int, order: np.ndarray) -> list[set[int]]:
    """Rook neighbours of each feature; feature i covers grid cell order[i]."""
    where = np.empty_like(order)
    where[order] = np.arange(order.size)
    out = []
    for cell in order:
        r, c = divmod(int(cell), side)
        cells = [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]
        out.append({int(where[rr * side + cc]) for rr, cc in cells
                    if 0 <= rr < side and 0 <= cc < side})
    return out


def row_standardized(neighbors: list[set[int]]) -> sp.csr_matrix:
    n = len(neighbors)
    rows, cols, vals = [], [], []
    for i, nb in enumerate(neighbors):
        for j in sorted(nb):
            rows.append(i)
            cols.append(j)
            vals.append(1.0 / len(nb))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def geojson_grid(side: int, order: np.ndarray) -> str:
    """FeatureCollection of unit squares (100 m cells), feature i at cell order[i]."""
    features = []
    for cell in order:
        r, c = divmod(int(cell), side)
        x0, y0 = 500000.0 + 100.0 * c, 4100000.0 + 100.0 * r
        ring = [[x0, y0], [x0 + 100.0, y0], [x0 + 100.0, y0 + 100.0], [x0, y0 + 100.0], [x0, y0]]
        features.append({
            "type": "Feature",
            "properties": {"cell": int(cell)},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        })
    return json.dumps({"type": "FeatureCollection", "features": features})


def sar_field(w: sp.csr_matrix, rho: float, seed: int) -> np.ndarray:
    eps = np.random.default_rng(seed).standard_normal(w.shape[0])
    a = (sp.identity(w.shape[0], format="csc") - rho * w.tocsc()).tocsc()
    return scipy.sparse.linalg.splu(a).solve(eps)


class CliInputs:
    """Everything the cli-analyze workload feeds the program, for one seed."""

    def __init__(self, seed: int, side: int = GRID_SIDE):
        self.side = side
        self.n = side * side
        self.order = np.random.default_rng(derive(seed, _TAG_PERM)).permutation(self.n)
        self.neighbors = rook_neighbors(side, self.order)
        self.w = row_standardized(self.neighbors)
        self.values = sar_field(self.w, VALUES_RHO, derive(seed, _TAG_VALUES))
        k_rng = np.random.default_rng(derive(seed, _TAG_K))
        self.k = int(k_rng.integers(self.n // 10 + 1, self.n - self.n // 10))
        self.simulate_seed = derive(seed, _TAG_SIMULATE)

    def write(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {"geojson": directory / "grid.geojson", "values": directory / "values.csv"}
        paths["geojson"].write_text(geojson_grid(self.side, self.order))
        paths["values"].write_text("value\n" + "".join(f"{float(v)!r}\n" for v in self.values))
        return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    inputs = CliInputs(args.seed)
    for kind, path in inputs.write(Path(args.out)).items():
        print(f"{kind}: {path}")
    print(f"k: {inputs.k}  simulate seed: {inputs.simulate_seed}")


if __name__ == "__main__":
    main()
