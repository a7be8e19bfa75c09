"""Embedded critical-value table for the MAUP-sensitivity test.

The table holds the 90/95/99th percentiles of the statistic's simulated null
distribution on a grid of autocorrelation levels (rho) and area counts (N),
at significance levels 0.1 / 0.05 / 0.01. A lookup snaps the query point to
the nearest grid cell, with no interpolation, matching how the published
example rows treat off-grid inputs.

The data is a versioned asset: bump ``TABLE_VERSION`` whenever entries change.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidAlphaError, InvalidDimensionError
from .sar import _check_rho

__all__ = [
    "TABLE_VERSION",
    "RHO_GRID",
    "N_GRID",
    "ALPHA_GRID",
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


def _ordered_by_alpha(values: np.ndarray) -> np.ndarray:
    """``values`` if a stricter alpha never has the smaller critical value."""
    bad = np.argwhere(~(np.diff(values, axis=1) <= 0))
    if bad.size:
        ir, _, jn = bad[0]
        raise ValueError(f"alpha ordering violated at rho={RHO_GRID[ir]}, N={N_GRID[jn]}: "
                         f"{values[ir, :, jn].tolist()}")
    return values


# Read-only, indexed [rho row, alpha column, N column].
_VALUES = _ordered_by_alpha(np.array([[_TABLE_DATA[r][a] for a in ALPHA_GRID] for r in RHO_GRID]))
_VALUES.flags.writeable = False


def _check_alpha(alpha: float) -> float:
    """``alpha`` if it is exactly one of ALPHA_GRID; otherwise InvalidAlphaError."""
    if alpha not in ALPHA_GRID:
        raise InvalidAlphaError(f"alpha must be one of {ALPHA_GRID}, got {alpha}")
    return alpha


def _rho_row(rho: float) -> int:
    """Grid row nearest rho, ties toward 0; NumericalError unless |rho| < 1."""
    _check_rho(rho)
    return min(range(len(RHO_GRID)), key=lambda i: (abs(RHO_GRID[i] - rho), abs(RHO_GRID[i])))


def _is_integer(x) -> bool:
    """True for an int or a numpy integer; a bool is no count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_area_count(n: int) -> int:
    """``n`` if it is an integer >= 1; otherwise InvalidDimensionError."""
    if not _is_integer(n) or n < 1:
        raise InvalidDimensionError(f"area count must be an integer >= 1, got {n!r}")
    return n


def _n_column(n: int) -> int:
    """Grid column nearest the area count n, an integer >= 1; otherwise
    InvalidDimensionError."""
    _check_area_count(n)
    return min(range(len(N_GRID)), key=lambda j: abs(N_GRID[j] - n))


def critical_value(n: int, rho: float, alpha: float) -> float:
    """Critical value for a test on N areas at autocorrelation rho and level alpha.

    alpha must be one of ALPHA_GRID. rho, which must lie in (-1, 1), snaps to
    the closest grid row (ties toward 0) and N, an integer >= 1, to the
    closest grid column, which clamps it to [25, 900].
    """
    column = ALPHA_GRID.index(_check_alpha(alpha))
    n_column = _n_column(n)
    return float(_VALUES[_rho_row(rho), column, n_column])


def export_critical_values_csv() -> str:
    """Long-format export: ``rho,n,alpha,value`` rows."""
    rows = (f"{rho},{n},{alpha},{_VALUES[ir, ja, jn]:.5f}"
            for ir, rho in enumerate(RHO_GRID) for jn, n in enumerate(N_GRID)
            for ja, alpha in enumerate(ALPHA_GRID))
    return "\n".join(["rho,n,alpha,value", *rows]) + "\n"
