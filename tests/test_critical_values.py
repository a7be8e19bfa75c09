"""Tests for the embedded critical-value table and its lookup semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaup import (
    ALPHA_GRID,
    N_GRID,
    RHO_GRID,
    InvalidAlphaError,
    InvalidDimensionError,
    NumericalError,
    critical_value,
    export_critical_values_csv,
)
from smaup.critical_values import _TABLE_DATA, _VALUES, _ordered_by_alpha


def exported_cells() -> dict:
    """{(rho, n, alpha): value} parsed from the CSV export."""
    cells = {}
    for line in export_critical_values_csv().splitlines()[1:]:
        rho, n, alpha, value = line.split(",")
        cells[float(rho), int(n), float(alpha)] = float(value)
    return cells


class TestTableData:
    def test_full_grid_present(self):
        assert _VALUES.shape == (9, 3, 6)
        assert _VALUES.size == 162
        assert np.all(_VALUES > 0)
        assert np.all(_VALUES < 1)
        assert not _VALUES.flags.writeable

    def test_published_spot_checks(self):
        assert critical_value(100, 0.0, 0.05) == 0.15746
        assert critical_value(25, -0.9, 0.01) == 0.83702
        assert critical_value(900, 0.9, 0.1) == 0.22411
        assert critical_value(400, 0.3, 0.05) == 0.09766

    def test_alpha_ordering_everywhere(self):
        for rho in RHO_GRID:
            for n in N_GRID:
                v01 = critical_value(n, rho, 0.01)
                v05 = critical_value(n, rho, 0.05)
                v10 = critical_value(n, rho, 0.1)
                assert v01 >= v05 >= v10

    def test_loader_rejects_disordered_alphas(self):
        values = _VALUES.copy()
        values[0, 0, 0], values[0, 2, 0] = values[0, 2, 0], values[0, 0, 0]
        with pytest.raises(ValueError, match=r"ordering violated at rho=-0\.9, N=25"):
            _ordered_by_alpha(values)


class TestSnapping:
    def test_snap_example_from_published_usage(self):
        # N=1000 clamps to 900, rho=0.007 snaps to 0.0
        assert critical_value(1000, 0.007, 0.05) == 0.05234

    def test_rho_tie_breaks_toward_zero(self):
        # 0.15 is equidistant from 0.0 and 0.3
        assert critical_value(100, 0.15, 0.05) == critical_value(100, 0.0, 0.05)
        assert critical_value(100, -0.15, 0.05) == critical_value(100, 0.0, 0.05)

    def test_n_clamps_to_grid_ends(self):
        assert critical_value(5, 0.0, 0.05) == critical_value(25, 0.0, 0.05)
        assert critical_value(10**6, 0.0, 0.05) == critical_value(900, 0.0, 0.05)

    def test_rho_clamps_beyond_grid(self):
        assert critical_value(100, 0.97, 0.05) == critical_value(100, 0.9, 0.05)
        assert critical_value(100, -0.99, 0.05) == critical_value(100, -0.9, 0.05)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf, 1.0, -1.0])
    def test_rho_outside_the_unit_interval_rejected(self, rho):
        # nan and +-inf used to snap to the -0.9 and 0.0 rows
        with pytest.raises(NumericalError, match=r"\|rho\| must be < 1"):
            critical_value(100, rho, 0.05)

    @pytest.mark.parametrize("n", [np.nan, np.inf, 0, -5, 2.5, 100.0, True])
    def test_area_count_not_a_positive_integer_rejected(self, n):
        # nan, +inf, 0, -5 and 2.5 used to read the N = 25 column
        with pytest.raises(InvalidDimensionError, match="area count must be an integer >= 1"):
            critical_value(n, 0.0, 0.05)

    def test_numpy_integer_area_count(self):
        assert critical_value(np.int64(100), 0.0, 0.05) == critical_value(100, 0.0, 0.05)

    def test_nearest_n(self):
        assert critical_value(150, 0.0, 0.05) == critical_value(100, 0.0, 0.05)
        assert critical_value(170, 0.0, 0.05) == critical_value(225, 0.0, 0.05)

    def test_unsupported_alpha(self):
        with pytest.raises(InvalidAlphaError):
            critical_value(100, 0.0, 0.025)


class TestLookupProperty:
    CELLS = exported_cells()
    MIDPOINTS = (-0.8, -0.6, -0.4, -0.15, 0.15, 0.4, 0.6, 0.8)

    @settings(max_examples=500, deadline=None)
    @given(
        n=st.integers(1, 10**6),
        rho=st.floats(-1, 1, exclude_min=True, exclude_max=True) | st.sampled_from(MIDPOINTS),
        alpha=st.sampled_from(ALPHA_GRID),
    )
    def test_matches_brute_force_nearest_cell(self, n, rho, alpha):
        rhos = sorted({cell[0] for cell in self.CELLS})
        ns = sorted({cell[1] for cell in self.CELLS})
        nearest_rho = min(rhos, key=lambda g: (abs(g - rho), abs(g)))
        nearest_n = min(ns, key=lambda g: abs(g - n))
        assert critical_value(n, rho, alpha) == self.CELLS[nearest_rho, nearest_n, alpha]


class TestExport:
    def test_csv_has_all_entries_and_round_trips(self):
        text = export_critical_values_csv()
        assert text.splitlines()[0] == "rho,n,alpha,value"
        cells = exported_cells()
        assert len(cells) == 162
        assert all(cells[rho, n, alpha] == _TABLE_DATA[rho][alpha][N_GRID.index(n)]
                   for rho in RHO_GRID for n in N_GRID for alpha in ALPHA_GRID)

    def test_csv_preserves_published_digits(self):
        text = export_critical_values_csv()
        assert "0.0,100,0.05,0.15746" in text
        assert "-0.9,25,0.01,0.83702" in text
        assert "0.9,900,0.01,0.55967" in text
