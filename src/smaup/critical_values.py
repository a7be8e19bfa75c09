"""Embedded critical-value table for the MAUP-sensitivity test.

The table holds the 90/95/99th percentiles of the statistic's simulated null
distribution on a grid of autocorrelation levels (rho) and area counts (N),
at significance levels 0.1 / 0.05 / 0.01. A lookup snaps the query point to
the nearest grid cell, with no interpolation, matching how the published
example rows treat off-grid inputs.

The data is a versioned asset: bump ``TABLE_VERSION`` whenever entries change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlphaError
from .sar import _check_rho

__all__ = [
    "TABLE_VERSION",
    "RHO_GRID",
    "N_GRID",
    "ALPHA_GRID",
    "CriticalValueTable",
    "DEFAULT_TABLE",
    "critical_value",
    "export_critical_values_csv",
]

TABLE_VERSION = "1.0"

RHO_GRID = (-0.9, -0.7, -0.5, -0.3, 0.0, 0.3, 0.5, 0.7, 0.9)
N_GRID = (25, 100, 225, 400, 625, 900)
ALPHA_GRID = (0.01, 0.05, 0.1)

# values[rho][alpha] runs over N_GRID.
_TABLE_DATA: dict[float, dict[float, tuple[float, ...]]] = {
    -0.9: {
        0.01: (0.83702, 0.09218, 0.23808, 0.05488, 0.07218, 0.02621),
        0.05: (0.83699, 0.08023, 0.10962, 0.04894, 0.04641, 0.02423),
        0.1: (0.69331, 0.06545, 0.07858, 0.04015, 0.03374, 0.02187),
    },
    -0.7: {
        0.01: (0.83676, 0.16134, 0.13402, 0.06737, 0.05486, 0.02858),
        0.05: (0.83662, 0.12492, 0.08643, 0.05900, 0.04280, 0.02459),
        0.1: (0.79421, 0.09566, 0.06777, 0.05058, 0.03392, 0.02272),
    },
    -0.5: {
        0.01: (0.83597, 0.16524, 0.13446, 0.06616, 0.06247, 0.02851),
        0.05: (0.83578, 0.13796, 0.08679, 0.05927, 0.04260, 0.02658),
        0.1: (0.68900, 0.10707, 0.07039, 0.05151, 0.03609, 0.02411),
    },
    -0.3: {
        0.01: (0.83316, 0.19276, 0.13396, 0.06330, 0.06090, 0.03696),
        0.05: (0.78849, 0.16932, 0.08775, 0.05464, 0.04787, 0.03042),
        0.1: (0.73592, 0.14282, 0.07076, 0.04649, 0.04001, 0.02614),
    },
    0.0: {
        0.01: (0.82370, 0.17925, 0.15514, 0.07732, 0.07988, 0.09301),
        0.05: (0.81952, 0.15746, 0.11126, 0.06961, 0.06066, 0.05234),
        0.1: (0.71632, 0.13621, 0.08801, 0.06112, 0.04937, 0.03759),
    },
    0.3: {
        0.01: (0.76472, 0.23404, 0.24640, 0.11588, 0.10715, 0.07070),
        0.05: (0.70466, 0.21088, 0.15360, 0.09766, 0.07938, 0.06461),
        0.1: (0.63718, 0.18239, 0.12101, 0.08324, 0.06347, 0.05549),
    },
    0.5: {
        0.01: (0.67337, 0.28921, 0.25535, 0.13992, 0.12975, 0.09856),
        0.05: (0.59461, 0.23497, 0.18244, 0.11682, 0.10129, 0.08860),
        0.1: (0.46548, 0.17541, 0.14248, 0.10008, 0.08137, 0.07701),
    },
    0.7: {
        0.01: (0.52155, 0.47399, 0.29351, 0.23923, 0.20321, 0.16250),
        0.05: (0.48958, 0.37226, 0.22280, 0.20540, 0.16144, 0.14123),
        0.1: (0.34720, 0.28774, 0.18170, 0.16442, 0.13395, 0.12354),
    },
    0.9: {
        0.01: (0.28599, 0.28938, 0.43520, 0.44060, 0.34437, 0.55967),
        0.05: (0.21580, 0.22532, 0.27122, 0.29043, 0.23648, 0.31424),
        0.1: (0.17640, 0.18835, 0.21695, 0.23031, 0.19435, 0.22411),
    },
}


@dataclass(frozen=True)
class CriticalValueTable:
    """Critical values on a (rho, alpha, N) grid with nearest-cell lookup."""

    rho_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    alpha_grid: tuple[float, ...]
    values: np.ndarray  # shape (len(rho_grid), len(alpha_grid), len(n_grid))
    version: str = TABLE_VERSION

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        expected = (len(self.rho_grid), len(self.alpha_grid), len(self.n_grid))
        if arr.shape != expected:
            raise ValueError(f"table shape {arr.shape} != grid shape {expected}")
        # Stricter alpha must never have the smaller critical value.
        for ir in range(arr.shape[0]):
            for jn in range(arr.shape[2]):
                col = arr[ir, :, jn]
                if not (col[0] >= col[1] >= col[2]):
                    raise ValueError(
                        f"alpha ordering violated at rho={self.rho_grid[ir]}, "
                        f"N={self.n_grid[jn]}: {col.tolist()}"
                    )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __eq__(self, other):
        if not isinstance(other, CriticalValueTable):
            return NotImplemented
        return (
            self.rho_grid == other.rho_grid
            and self.n_grid == other.n_grid
            and self.alpha_grid == other.alpha_grid
            and np.array_equal(self.values, other.values)
        )

    def _alpha_index(self, alpha: float) -> int:
        for idx, a in enumerate(self.alpha_grid):
            if abs(a - alpha) < 1e-12:
                return idx
        raise InvalidAlphaError(
            f"alpha must be one of {self.alpha_grid}, got {alpha}"
        )

    def _snap_rho(self, rho: float) -> int:
        grid = np.asarray(self.rho_grid)
        dist = np.abs(grid - rho)
        # tie-break toward the grid value closer to zero
        order = sorted(range(grid.size), key=lambda i: (dist[i], abs(grid[i])))
        return order[0]

    def _snap_n(self, n: int) -> int:
        grid = np.asarray(self.n_grid)
        clamped = min(max(n, grid[0]), grid[-1])
        return int(np.argmin(np.abs(grid - clamped)))

    def lookup(self, n: int, rho: float, alpha: float) -> float:
        """Nearest-grid-cell critical value for (N, rho) at level alpha.

        A rho outside (-1, 1), nan included, raises NumericalError.
        """
        ja = self._alpha_index(alpha)
        return float(self.values[self._snap_rho(_check_rho(rho)), ja, self._snap_n(n)])

    def to_csv(self) -> str:
        """Long-format export: ``rho,n,alpha,value`` rows."""
        lines = ["rho,n,alpha,value"]
        for ir, rho in enumerate(self.rho_grid):
            for jn, n in enumerate(self.n_grid):
                for ja, alpha in enumerate(self.alpha_grid):
                    lines.append(f"{rho},{n},{alpha},{self.values[ir, ja, jn]:.5f}")
        return "\n".join(lines) + "\n"


def _build_default() -> CriticalValueTable:
    arr = np.empty((len(RHO_GRID), len(ALPHA_GRID), len(N_GRID)))
    for ir, rho in enumerate(RHO_GRID):
        for ja, alpha in enumerate(ALPHA_GRID):
            arr[ir, ja, :] = _TABLE_DATA[rho][alpha]
    return CriticalValueTable(
        rho_grid=RHO_GRID, n_grid=N_GRID, alpha_grid=ALPHA_GRID, values=arr
    )


DEFAULT_TABLE = _build_default()


def critical_value(n: int, rho: float, alpha: float) -> float:
    """Critical value for a test on N areas at autocorrelation rho and level alpha.

    rho, which must lie in (-1, 1), snaps to the closest grid row (ties toward
    0) and N to the closest grid column (clamped to [25, 900]).
    """
    return DEFAULT_TABLE.lookup(n, rho, alpha)


def export_critical_values_csv() -> str:
    return DEFAULT_TABLE.to_csv()
