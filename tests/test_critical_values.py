"""Tests for the embedded critical-value table and its lookup semantics."""

import numpy as np
import pytest

from smaup import (
    ALPHA_GRID,
    DEFAULT_TABLE,
    N_GRID,
    RHO_GRID,
    CriticalValueTable,
    InvalidAlphaError,
    NumericalError,
    critical_value,
    export_critical_values_csv,
)


class TestTableData:
    def test_full_grid_present(self):
        assert DEFAULT_TABLE.values.shape == (9, 3, 6)
        assert DEFAULT_TABLE.values.size == 162
        assert np.all(DEFAULT_TABLE.values > 0)
        assert np.all(DEFAULT_TABLE.values < 1)

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

    def test_loader_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"table shape \(9, 3, 5\) != grid shape \(9, 3, 6\)"):
            CriticalValueTable(
                rho_grid=RHO_GRID, n_grid=N_GRID, alpha_grid=ALPHA_GRID,
                values=DEFAULT_TABLE.values[:, :, :5],
            )

    def test_loader_rejects_disordered_alphas(self):
        values = DEFAULT_TABLE.values.copy()
        values[0, 0, 0], values[0, 2, 0] = values[0, 2, 0], values[0, 0, 0]
        with pytest.raises(ValueError, match="ordering"):
            CriticalValueTable(
                rho_grid=RHO_GRID, n_grid=N_GRID, alpha_grid=ALPHA_GRID, values=values
            )


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

    def test_nearest_n(self):
        assert critical_value(150, 0.0, 0.05) == critical_value(100, 0.0, 0.05)
        assert critical_value(170, 0.0, 0.05) == critical_value(225, 0.0, 0.05)

    def test_unsupported_alpha(self):
        with pytest.raises(InvalidAlphaError):
            critical_value(100, 0.0, 0.025)


class TestExport:
    def test_csv_has_all_entries_and_round_trips(self):
        text = export_critical_values_csv()
        lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
        assert lines[0] == "rho,n,alpha,value"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 162
        rebuilt = np.empty_like(DEFAULT_TABLE.values)
        for rho_s, n_s, alpha_s, value_s in rows:
            ir = RHO_GRID.index(float(rho_s))
            jn = N_GRID.index(int(n_s))
            ja = ALPHA_GRID.index(float(alpha_s))
            rebuilt[ir, ja, jn] = float(value_s)
        assert np.array_equal(rebuilt, DEFAULT_TABLE.values)

    def test_csv_preserves_published_digits(self):
        text = export_critical_values_csv()
        assert "0.0,100,0.05,0.15746" in text
        assert "-0.9,25,0.01,0.83702" in text
        assert "0.9,900,0.01,0.55967" in text
