"""Tests for the sensitivity statistic, its components, and the test logic."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from smaup import (
    ALPHA_GRID,
    AreaVariable,
    InvalidAlphaError,
    InvalidKError,
    NullDistribution,
    NumericalError,
    SarSpec,
    ShapeMismatchError,
    build_lattice_rook,
    critical_value,
    estimate_rho,
    eta_of_theta,
    generate_sar,
    l_of_theta,
    m_statistic,
    min_safe_k,
    scan_k,
    smaup_test,
    tau_of_theta,
)

mp.dps = 50


def oracle_m(rho, theta):
    """Independent extended-precision evaluation of the statistic, from the
    six published constants rather than the library's copy of them."""
    b, m = mpf("-2.188"), mpf("7.031")
    p, a = mpf("0.516"), mpf("1.287")
    b0, b1 = mpf("5.319"), mpf("-5.532")
    rho = mpf(repr(float(rho)))
    theta = mpf(repr(float(theta)))
    big_l = 1 / (1 + mp.e ** (b + m * theta))
    eta = p * theta ** a
    tau = b0 + b1 * theta
    return big_l / (1 + eta * mp.e ** (tau * rho))


class TestComponents:
    def test_ceiling_limit_at_zero(self):
        assert l_of_theta(1e-15) == pytest.approx(0.899166719284, abs=1e-10)

    def test_ceiling_at_0p4(self):
        assert l_of_theta(0.4) == pytest.approx(0.348781402728, abs=1e-10)

    def test_ceiling_strictly_decreasing(self):
        grid = np.linspace(0.01, 1.0, 100)
        values = l_of_theta(grid)
        assert np.all(np.diff(values) < 0)

    def test_onset_at_one(self):
        assert eta_of_theta(1.0) == pytest.approx(0.516, abs=1e-15)

    def test_onset_at_half(self):
        assert eta_of_theta(0.5) == pytest.approx(0.21145798877, abs=1e-10)

    def test_onset_strictly_increasing(self):
        grid = np.linspace(0.01, 1.0, 100)
        assert np.all(np.diff(eta_of_theta(grid)) > 0)

    def test_speed_limit_at_zero(self):
        assert tau_of_theta(0.0) == pytest.approx(5.319)

    def test_speed_at_half(self):
        assert tau_of_theta(0.5) == pytest.approx(2.553)

    def test_speed_zero_crossing(self):
        crossing = 5.319 / 5.532
        assert crossing == pytest.approx(0.961496746204, abs=1e-10)
        assert tau_of_theta(crossing) == pytest.approx(0.0, abs=1e-12)
        assert tau_of_theta(crossing - 0.01) > 0 > tau_of_theta(crossing + 0.01)


class TestStatistic:
    def test_value_at_origin_half(self):
        assert m_statistic(0.0, 0.5) == pytest.approx(0.172992540517, abs=1e-12)

    def test_values_at_strong_autocorrelation(self):
        assert m_statistic(0.9, 0.5) == pytest.approx(0.067511153007, abs=1e-12)
        assert m_statistic(-0.9, 0.5) == pytest.approx(0.2052125615, abs=1e-10)
        assert m_statistic(0.9, 0.5) < m_statistic(0.0, 0.5) < m_statistic(-0.9, 0.5)

    def test_oracle_agreement_on_grid(self):
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
                expected = float(oracle_m(rho, theta))
                assert m_statistic(rho, theta) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_ceiling(self):
        rhos = np.linspace(-0.99, 0.99, 41)
        thetas = np.linspace(0.01, 1.0, 50)
        for theta in thetas:
            ceiling = l_of_theta(theta)
            values = m_statistic(rhos, theta)
            assert np.all(values > 0.0)
            assert np.all(values < ceiling)
            assert ceiling < 1.0

    def test_rho_slope_sign_matches_negative_tau(self):
        step = 1e-6
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            for theta in (0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 0.99):
                derivative = (m_statistic(rho + step, theta) - m_statistic(rho - step, theta)) / (2 * step)
                assert np.sign(derivative) == -np.sign(tau_of_theta(theta))

    @pytest.mark.parametrize("rho, theta, error", [
        (1.5, 0.5, NumericalError),  # used to read 0.0195
        (-1.0, 0.5, NumericalError),
        (np.nan, 0.5, NumericalError),
        (np.inf, 0.5, NumericalError),
        (np.array([0.0, 0.5, 1.0]), 0.5, NumericalError),
        (0.5, 1.5, InvalidKError),  # used to read 0.000196
        (0.5, -0.2, InvalidKError),  # used to read nan with a RuntimeWarning
        (0.5, 0.0, InvalidKError),
        (0.5, np.nan, InvalidKError),
        (0.0, np.array([0.5, 1.0, 1.01]), InvalidKError),
    ])
    def test_outside_the_model_rejected(self, rho, theta, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=r"\|rho\| must be < 1|theta = k/N must lie in \(0, 1\]"):
                m_statistic(rho, theta)

    def test_model_edges_accepted(self):
        assert 0 < m_statistic(np.array([-0.999999, 0.999999]), 1.0).min()
        assert 0 < m_statistic(0.0, np.array([1e-9, 1.0])).min()

    def test_strictly_decreasing_in_theta(self):
        grid = np.linspace(0.01, 0.99, 99)
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            values = m_statistic(rho, grid)
            assert np.all(np.diff(values) < 0)


@pytest.fixture(scope="module")
def w30():
    return build_lattice_rook(30, 30)


@pytest.fixture(scope="module")
def flat_field(w30):
    return generate_sar(w30, SarSpec(rho=0.0, seed=101))


class TestSmaupTest:
    def test_no_aggregation_never_rejects(self, w30, flat_field):
        result = smaup_test(flat_field, w30, k=900)
        assert result.theta == 1.0
        assert result.m_value == pytest.approx(float(oracle_m(result.rho_used, 1.0)), abs=1e-12)
        assert result.m_value < 0.02  # below every tabulated critical value
        assert not any(result.decision.values())

    def test_heavy_aggregation_rejects_hard(self, w30, flat_field):
        result = smaup_test(flat_field, w30, k=90)
        assert result.m_value > 0.7  # near the theta=0.1 ceiling of ~0.815
        assert result.decision[0.01]

    def test_decision_matches_critical_comparison(self, w30, flat_field):
        result = smaup_test(flat_field, w30, k=300)
        for alpha, crit in result.critical_values.items():
            assert result.decision[alpha] == (result.m_value > crit)

    def test_pseudo_p_from_null_vector(self, w30, flat_field):
        result = smaup_test(flat_field, w30, k=900, null=[0.1, 0.2, 0.3, 0.4])
        assert result.pseudo_p is not None
        # theta=1 gives M ~ 0.005, below the entire null vector
        assert result.pseudo_p == 1.0
        result2 = smaup_test(flat_field, w30, k=900, null=[0.001, 0.002, 0.003, 0.004])
        assert result2.pseudo_p == 0.0

    def test_pseudo_p_worked_example(self):
        from smaup.stats import pseudo_p
        assert pseudo_p([0.1, 0.2, 0.3, 0.4], 0.25) == 0.5

    def test_rho_override(self, w30, flat_field):
        result = smaup_test(flat_field, w30, k=450, rho=0.25)
        assert result.rho_used == 0.25
        assert result.m_value == pytest.approx(float(oracle_m(0.25, 0.5)), abs=1e-12)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 1.0, -3.0])
    def test_rho_override_outside_the_unit_interval(self, w30, flat_field, rho):
        with pytest.raises(NumericalError, match=r"\|rho\| must be < 1"):
            smaup_test(flat_field, w30, k=450, rho=rho)

    def test_k_validation(self, w30, flat_field):
        with pytest.raises(InvalidKError):
            smaup_test(flat_field, w30, k=0)
        with pytest.raises(InvalidKError):
            smaup_test(flat_field, w30, k=901)

    def test_alpha_validation(self, w30, flat_field):
        with pytest.raises(InvalidAlphaError):
            smaup_test(flat_field, w30, k=10, alpha=0.2)

    def test_alpha_off_the_grid_refused_by_lookup_test_and_verdict(self, w30, flat_field):
        # 1 - 0.9 is 0.09999999999999998: near 0.1, but not the tabulated level
        alpha = 1 - 0.9
        with pytest.raises(InvalidAlphaError):
            critical_value(900, 0.0, alpha)
        with pytest.raises(InvalidAlphaError):
            smaup_test(flat_field, w30, k=10, alpha=alpha)
        with pytest.raises(InvalidAlphaError):
            smaup_test(flat_field, w30, k=10).rejects(alpha)

    def test_json_round_trippable(self, w30, flat_field):
        result = smaup_test(flat_field, w30, k=450, null=[0.1, 0.2])
        doc = json.loads(result.to_json())
        assert doc["n"] == 900
        assert doc["k"] == 450
        assert doc["m_value"] == result.m_value
        assert set(doc["critical_values"]) == {"0.01", "0.05", "0.1"}
        assert doc["params"]["logistic_slope"] == 7.031

    def test_significance_stars(self, w30, flat_field):
        assert smaup_test(flat_field, w30, k=90).significance_stars() == "***"
        assert smaup_test(flat_field, w30, k=900).significance_stars() == ""

    def test_rejects_needs_a_recorded_alpha(self, w30, flat_field):
        with pytest.raises(InvalidAlphaError, match="no decision recorded at alpha=0.2"):
            smaup_test(flat_field, w30, k=90).rejects(0.2)


class TestMinSafeK:
    def exhaustive_oracle(self, y, w, alpha, k_min, k_max, rho):
        """Brute force: smallest k whose whole upper tail is non-rejecting."""
        rejecting = {
            k: smaup_test(y, w, k, alpha=alpha, rho=rho).decision[alpha]
            for k in range(k_min, k_max + 1)
        }
        best = None
        for k in range(k_max, k_min - 1, -1):
            if rejecting[k]:
                break
            best = k
        return best

    def test_never_rejecting_variable_returns_k_min(self, w30, flat_field):
        # restrict the scan high enough that theta stays near 1
        assert min_safe_k(flat_field, w30, alpha=0.05, k_min=850, k_max=900) == 850

    def test_always_rejecting_variable_returns_none(self, w30, flat_field):
        assert min_safe_k(flat_field, w30, alpha=0.05, k_min=30, k_max=90) is None

    def test_matches_exhaustive_scan_on_206_areas(self):
        w = build_lattice_rook(2, 103)  # 206 areas, same count as a typical use case
        y = generate_sar(w, SarSpec(rho=0.0, seed=7))
        rho_hat = estimate_rho(w, y)
        answer = min_safe_k(y, w, alpha=0.05, k_min=9, k_max=206)
        oracle = self.exhaustive_oracle(y, w, 0.05, 9, 206, rho_hat)
        assert answer == oracle
        assert answer is not None
        # one step below the answer must reject, the answer itself must not
        assert smaup_test(y, w, answer, rho=rho_hat).decision[0.05] is False
        assert smaup_test(y, w, answer - 1, rho=rho_hat).decision[0.05] is True

    def test_scan_k_is_descending_and_consistent(self, w30, flat_field):
        results = scan_k(flat_field, w30, alpha=0.05, k_min=880, k_max=900)
        assert [r.k for r in results] == list(range(900, 879, -1))
        assert all(r.rho_used == results[0].rho_used for r in results)

    def test_invalid_range(self, w30, flat_field):
        with pytest.raises(InvalidKError):
            min_safe_k(flat_field, w30, k_min=0, k_max=10)
        with pytest.raises(InvalidKError):
            scan_k(flat_field, w30, k_min=50, k_max=20)


class TestScanSharesOnePath:
    @pytest.fixture(scope="class")
    def case(self):
        w = build_lattice_rook(10, 10)
        y = generate_sar(w, SarSpec(rho=0.4, seed=3))
        null = NullDistribution(n=100, rho=0.0, values=np.linspace(0.01, 0.4, 20), replicates=20)
        return w, y, null

    @pytest.mark.parametrize("with_null", [False, True])
    def test_scan_equals_per_k_test(self, case, with_null):
        w, y, null = case
        null = null if with_null else None
        results = scan_k(y, w, alpha=0.05, k_min=5, k_max=100, null=null)
        assert [r.k for r in results] == list(range(100, 4, -1))
        for r in results:
            single = smaup_test(y, w, r.k, alpha=0.05, null=null)
            assert r == single
            assert r.to_json() == single.to_json()
            assert r.m_value == m_statistic(r.rho_used, r.k / w.n)
            assert (r.pseudo_p is None) == (null is None)

    def test_min_safe_k_with_null_matches_pseudo_p_oracle(self, case):
        w, y, null = case
        rho_hat = estimate_rho(w, y)
        oracle = None
        for k in range(w.n, 0, -1):
            p = np.count_nonzero(null.values > m_statistic(rho_hat, k / w.n)) / null.replicates
            if p < 0.05:
                break
            oracle = k
        assert oracle is not None and 1 < oracle < w.n  # the null decides mid-range
        assert min_safe_k(y, w, alpha=0.05, null=null) == oracle

    def test_null_for_another_n_rejected(self, case):
        w, y, _ = case
        null25 = NullDistribution(n=25, rho=0.0, values=np.linspace(0.1, 0.3, 5), replicates=5)
        with pytest.raises(ShapeMismatchError, match="N=25"):
            smaup_test(y, w, 50, null=null25)
        with pytest.raises(ShapeMismatchError):
            min_safe_k(y, w, null=null25)
        # a bare vector carries no N and is taken as given
        assert smaup_test(y, w, 50, null=null25.values).pseudo_p is not None


class TestRhoMismatchedNull:
    @pytest.fixture(scope="class")
    def case(self):
        w = build_lattice_rook(10, 10)
        y = generate_sar(w, SarSpec(rho=0.0, seed=2))
        rho_hat = estimate_rho(w, y)
        assert abs(rho_hat) < 0.05  # a variable with rho near 0
        return w, y, rho_hat

    @staticmethod
    def null_at(rho):
        return NullDistribution(n=100, rho=rho, values=np.linspace(0.01, 0.4, 20), replicates=20)

    def test_null_from_another_rho_cell_warns_naming_both(self, case):
        w, y, rho_hat = case
        null = self.null_at(0.9)
        for call in (
            lambda: smaup_test(y, w, 30, null=null),
            lambda: scan_k(y, w, k_min=20, k_max=30, null=null),
            lambda: min_safe_k(y, w, null=null),
        ):
            with pytest.warns(UserWarning, match="null was simulated at rho=0.9") as record:
                call()
            assert f"{rho_hat:.4g}" in str(record[0].message)
        with pytest.warns(UserWarning, match=r"rho=0\.9.*is 0\.5"):
            smaup_test(y, w, 30, null=null, rho=0.5)

    @pytest.mark.parametrize("null_rho", [0.0, 0.1, -0.14])
    def test_same_rho_cell_is_silent(self, case, null_rho):
        w, y, _ = case
        null = self.null_at(null_rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            smaup_test(y, w, 30, null=null)
            scan_k(y, w, k_min=20, k_max=30, null=null)
            min_safe_k(y, w, null=null)
            smaup_test(y, w, 30, null=self.null_at(0.9), rho=0.85)
            # a bare vector carries no rho and is taken as given
            smaup_test(y, w, 30, null=self.null_at(0.9).values)


class TestVerdictRules:
    """Every verdict a result reports follows from what the test measured."""

    W = build_lattice_rook(6, 6)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(-1e3, 1e3), min_size=36, max_size=36),
        rho=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        null=st.none() | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    )
    def test_decisions_stars_and_theta_follow_the_measurements(self, values, rho, null):
        results = scan_k(AreaVariable(np.asarray(values), self.W), self.W, null=null, rho=rho)
        assert [r.k for r in results] == list(range(36, 0, -1))
        for r in results:
            by_cv = {a: r.m_value > r.critical_values[a] for a in ALPHA_GRID}
            by_pp = None if null is None else {a: r.pseudo_p < a for a in ALPHA_GRID}
            verdicts = by_cv if null is None else by_pp
            for alpha in ALPHA_GRID:
                assert r.rejects(alpha) == verdicts[alpha]
            stars = next((s for a, s in ((0.01, "***"), (0.05, "**"), (0.1, "*")) if verdicts[a]), "")
            assert r.significance_stars() == stars
            assert r.theta == r.k / r.n
            doc = r.to_dict()
            assert doc["decision"] == {str(a): v for a, v in by_cv.items()}
            assert doc["pseudo_p_decision"] == (
                None if by_pp is None else {str(a): v for a, v in by_pp.items()})
