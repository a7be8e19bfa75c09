"""Tests for SAR generation, rho estimation, and rank-matching permutation."""

import numpy as np
import pytest
import scipy.stats

from smaup import (
    AreaVariable,
    DegenerateInputError,
    RetryExhaustedError,
    SarSpec,
    ShapeMismatchError,
    build_lattice_rook,
    estimate_rho,
    generate_sar,
    generate_with_target_rho,
    rank_permute,
)
from smaup.sar import (
    _concentrated_loglik_terms,
    area_variable_from_csv,
    area_variable_to_csv,
)


def grid_search_rho(w, y, step=0.001):
    """Oracle: exhaustive maximization of the same likelihood on a rho grid."""
    loglik = _concentrated_loglik_terms(w, y.values)
    grid = np.arange(-0.999, 0.999 + step / 2, step)
    values = [loglik(r) for r in grid]
    return float(grid[int(np.argmax(values))])


@pytest.fixture(scope="module")
def w10():
    return build_lattice_rook(10, 10)


@pytest.fixture(scope="module")
def w30():
    return build_lattice_rook(30, 30)


class TestGenerateSar:
    def test_rho_zero_returns_raw_innovations(self, w10):
        y = generate_sar(w10, SarSpec(rho=0.0, seed=123))
        eps = np.random.default_rng(123).standard_normal(100)
        assert np.array_equal(y.values, eps)

    def test_deterministic_under_fixed_seed(self, w10):
        spec = SarSpec(rho=0.9, seed=42)
        a = generate_sar(w10, spec)
        b = generate_sar(w10, spec)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self, w10):
        a = generate_sar(w10, SarSpec(rho=0.5, seed=1))
        b = generate_sar(w10, SarSpec(rho=0.5, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_solves_the_sar_system(self, w10):
        spec = SarSpec(rho=0.7, seed=5)
        y = generate_sar(w10, spec)
        eps = np.random.default_rng(5).standard_normal(100)
        residual = y.values - spec.rho * (w10.sparse @ y.values)
        assert np.allclose(residual, eps, atol=1e-10)

    def test_rho_magnitude_validated(self):
        with pytest.raises(Exception, match="rho"):
            SarSpec(rho=1.0, seed=0)

    def test_singular_system_with_raw_weights(self):
        from smaup import NumericalError, SpatialWeights
        # raw weight 2.0 on a single edge makes (I - 0.5 W) exactly singular
        w = SpatialWeights(n=2, neighbors=((1,), (0,)), weights=((2.0,), (2.0,)),
                           standardized=False)
        with pytest.raises(NumericalError, match="0.5"):
            generate_sar(w, SarSpec(rho=0.5, seed=0))

    def test_rho_outside_stability_interval_of_binary_weights(self):
        from smaup import NumericalError
        w = build_lattice_rook(20, 20, standardized=False)  # 1/lambda_max ~ 0.253
        with pytest.raises(NumericalError, match="stability interval"):
            generate_sar(w, SarSpec(rho=0.6, seed=0))
        with pytest.raises(NumericalError, match="stability interval"):
            generate_sar(w, SarSpec(rho=-0.6, seed=0))
        spec = SarSpec(rho=0.2, seed=0)
        y = generate_sar(w, spec)
        eps = np.random.default_rng(0).standard_normal(w.n)
        assert np.allclose(y.values - spec.rho * (w.sparse @ y.values), eps, atol=1e-10)

    def test_sparse_solver_path_above_dense_limit(self):
        w = build_lattice_rook(51, 51)  # 2601 areas, takes the sparse LU route
        spec = SarSpec(rho=0.8, seed=4)
        y = generate_sar(w, spec)
        eps = np.random.default_rng(4).standard_normal(w.n)
        residual = y.values - spec.rho * (w.sparse @ y.values)
        assert np.allclose(residual, eps, atol=1e-9)

    def test_estimates_recover_target_on_30x30(self, w30):
        hits = 0
        for seed in range(100):
            y = generate_sar(w30, SarSpec(rho=0.9, seed=seed))
            if 0.8 < estimate_rho(w30, y) < 0.975:
                hits += 1
        assert hits >= 95


class TestEstimateRho:
    def test_matches_grid_search_oracle(self, w10):
        for rho, seed in [(0.0, 3), (0.9, 7), (-0.7, 11)]:
            y = generate_sar(w10, SarSpec(rho=rho, seed=seed))
            golden = estimate_rho(w10, y)
            grid = grid_search_rho(w10, y)
            assert abs(golden - grid) <= 0.001

    def test_mean_estimate_near_zero_for_iid_fields(self, w30):
        estimates = [
            estimate_rho(w30, generate_sar(w30, SarSpec(rho=0.0, seed=s)))
            for s in range(100)
        ]
        assert abs(float(np.mean(estimates))) < 0.05

    @pytest.mark.parametrize("rho", [-0.9, 0.9])
    def test_small_bias_at_strong_autocorrelation(self, w30, rho):
        estimates = [
            estimate_rho(w30, generate_sar(w30, SarSpec(rho=rho, seed=s)))
            for s in range(100)
        ]
        assert abs(float(np.mean(estimates)) - rho) < 0.05

    def test_single_draw_lands_in_band(self, w30):
        y = generate_sar(w30, SarSpec(rho=0.9, seed=0))
        assert 0.8 < estimate_rho(w30, y) < 0.975

    def test_constant_vector_rejected(self, w10):
        y = AreaVariable(values=np.full(100, 3.0), weights=w10)
        with pytest.raises(DegenerateInputError, match="constant"):
            estimate_rho(w10, y)

    def test_too_few_areas_rejected(self):
        w = build_lattice_rook(2, 2)
        y = generate_sar(w, SarSpec(rho=0.0, seed=1))
        with pytest.raises(Exception, match="n >= 10"):
            estimate_rho(w, y)


class TestRankPermute:
    def test_rank_reversal(self):
        w = build_lattice_rook(1, 3)
        y = AreaVariable(values=np.array([1.0, 2.0, 3.0]), weights=w)
        x = AreaVariable(values=np.array([30.0, 20.0, 10.0]), weights=w)
        assert rank_permute(y, x).values.tolist() == [3.0, 2.0, 1.0]

    def test_identity_when_reference_is_source(self, w10):
        y = generate_sar(w10, SarSpec(rho=0.5, seed=9))
        assert np.array_equal(rank_permute(y, y).values, y.values)

    def test_multiset_preserved_and_ranks_match(self, w10):
        rng = np.random.default_rng(17)
        for _ in range(20):
            y = AreaVariable(values=rng.standard_normal(100), weights=w10)
            x = AreaVariable(values=rng.standard_normal(100), weights=w10)
            out = rank_permute(y, x)
            assert np.array_equal(np.sort(out.values), np.sort(y.values))
            rho_s = scipy.stats.spearmanr(out.values, x.values).statistic
            assert rho_s == pytest.approx(1.0)

    def test_sort_based_oracle_agreement(self, w10):
        # independent oracle: pair sorted values by descending rank explicitly
        rng = np.random.default_rng(23)
        y = AreaVariable(values=rng.standard_normal(100), weights=w10)
        x = AreaVariable(values=rng.standard_normal(100), weights=w10)
        expected = np.empty(100)
        by_rank = np.argsort(-x.values)
        for rank, area in enumerate(by_rank):
            expected[area] = np.sort(y.values)[::-1][rank]
        assert np.array_equal(rank_permute(y, x).values, expected)

    def test_length_mismatch(self, w10):
        w3 = build_lattice_rook(1, 3)
        y = AreaVariable(values=np.array([1.0, 2.0, 3.0]), weights=w3)
        x = generate_sar(w10, SarSpec(rho=0.0, seed=0))
        with pytest.raises(ShapeMismatchError):
            rank_permute(y, x)


class TestTargetRho:
    def test_wide_window_returns_first_attempt(self, w10):
        y = generate_sar(w10, SarSpec(rho=0.9, seed=2))
        current = estimate_rho(w10, y)
        out = generate_with_target_rho(w10, y, target=current, window=0.5, seed=4)
        assert out.meta["attempts"] == 1
        assert np.array_equal(np.sort(out.values), np.sort(y.values))

    def test_decorrelate_strong_field(self, w30):
        y = generate_sar(w30, SarSpec(rho=0.9, seed=6))
        out = generate_with_target_rho(w30, y, target=0.0, window=0.5, seed=8)
        assert np.array_equal(np.sort(out.values), np.sort(y.values))
        assert -0.5 < estimate_rho(w30, out) < 0.5

    def test_mean_and_variance_preserved_exactly(self, w10):
        y = generate_sar(w10, SarSpec(rho=0.9, seed=10))
        out = generate_with_target_rho(w10, y, target=0.0, window=0.5, seed=12)
        # permutation: identical sorted vectors, hence identical moments
        assert np.array_equal(np.sort(out.values), np.sort(y.values))
        src, dst = np.sort(y.values), np.sort(out.values)
        assert float(src.sum()) == float(dst.sum())
        assert float((src * src).sum()) == float((dst * dst).sum())

    def test_measure_zero_window_exhausts_retries(self, w10):
        y = generate_sar(w10, SarSpec(rho=0.9, seed=14))
        with pytest.raises(RetryExhaustedError) as excinfo:
            generate_with_target_rho(w10, y, target=0.0, window=1e-9, max_retries=5, seed=16)
        assert excinfo.value.best_attempt is not None
        assert np.isfinite(excinfo.value.best_rho)


class TestCsv:
    def test_round_trip(self, w10):
        y = generate_sar(w10, SarSpec(rho=0.3, seed=18))
        text = area_variable_to_csv(y)
        back = area_variable_from_csv(text, w10)
        assert np.array_equal(back.values, y.values)

    def test_headerless_and_comments(self, w10):
        w2 = build_lattice_rook(1, 2)
        back = area_variable_from_csv("# meta\n1.5\n-2.0\n", w2)
        assert back.values.tolist() == [1.5, -2.0]
