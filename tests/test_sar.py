"""Tests for SAR generation, rho estimation, and rank-matching permutation."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.stats

import smaup
from smaup import (
    AreaVariable,
    DegenerateInputError,
    NumericalError,
    RetryExhaustedError,
    SarSpec,
    ShapeMismatchError,
    SpatialWeights,
    build_lattice_rook,
    estimate_rho,
    generate_sar,
    generate_with_target_rho,
    rank_permute,
    sar,
)
from smaup.sar import (
    _concentrated_loglik_terms,
    _eigenvalue_range,
    _log_det_function,
    area_variable_from_csv,
    area_variable_to_csv,
    w_eigenvalues,
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


def scaled_rows(base, seed):
    """A non-standardized W = D A: row i of a binary lattice scaled by d_i.

    Not symmetric, but similar to D^1/2 A D^1/2, so its spectrum is real.
    """
    scale = np.random.default_rng(seed).uniform(0.5, 1.5, base.n)
    w = SpatialWeights(
        n=base.n, neighbors=base.neighbors, standardized=False,
        weights=tuple(tuple(float(scale[i]) for _ in row) for i, row in enumerate(base.neighbors)),
    )
    return w, scale


class TestEigenvalues:
    def test_standardized_spectrum_equals_dense_similarity_transform(self):
        # the n x n construction it replaced, bit for bit
        w = build_lattice_rook(20, 20)
        d = 1.0 / np.sqrt(w.cardinalities.astype(np.float64))
        a = (w.sparse.toarray() > 0).astype(np.float64)
        expected = scipy.linalg.eigvalsh(a * d[:, None] * d[None, :])
        assert np.array_equal(w_eigenvalues(w), expected)

    def test_binary_spectrum_from_symmetric_solver(self):
        w = build_lattice_rook(9, 12, standardized=False)
        lam = w_eigenvalues(w)
        assert np.array_equal(lam, scipy.linalg.eigvalsh(w.sparse.toarray()))
        general = np.sort(scipy.linalg.eigvals(w.sparse.toarray()).real)
        assert lam == pytest.approx(general, rel=0, abs=1e-12)
        assert (lam[0], lam[-1]) == pytest.approx(rook_extremes(9, 12), rel=0, abs=1e-12)

    def test_asymmetric_weights_take_the_general_solver(self):
        base = build_lattice_rook(8, 8, standardized=False)
        w, scale = scaled_rows(base, seed=3)
        root = np.sqrt(scale)
        similar = scipy.linalg.eigvalsh(root[:, None] * base.sparse.toarray() * root[None, :])
        assert w_eigenvalues(w) == pytest.approx(similar, rel=0, abs=1e-10)

    def test_standardized_unequal_row_weights_use_w_itself(self, monkeypatch):
        # W = D^-1 U with symmetric U of uniform(0.2, 1) edge weights: row
        # sums are 1, rows are not 1/degree, and the spectrum is real
        base = build_lattice_rook(10, 10)
        rng = np.random.default_rng(5)
        u = scipy.sparse.triu(base.sparse > 0, k=1).astype(np.float64)
        u.data = rng.uniform(0.2, 1.0, u.nnz)
        u = (u + u.T).tocsr()
        rows = [u[i].toarray().ravel()[list(row)] for i, row in enumerate(base.neighbors)]
        weights = tuple(tuple(r / r.sum()) for r in rows)
        w = SpatialWeights(n=base.n, neighbors=base.neighbors, weights=weights)
        expected = np.sort(scipy.linalg.eigvals(w.sparse.toarray()).real)
        assert w_eigenvalues(w) == pytest.approx(expected, rel=0, abs=1e-12)
        y = generate_sar(w, SarSpec(rho=0.5, seed=3))
        by_spectrum = estimate_rho(w, y)
        del w.__dict__["_sar_eigenvalues"]
        sparse_path(monkeypatch)
        assert abs(estimate_rho(w, y) - by_spectrum) <= 1e-6

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs procfs")
    def test_holds_one_n_by_n_array(self):
        # n = 1600: one float64 n x n array is 20.5 MB; the dense construction
        # it replaced held three at once (about +60 MB). The child reads its
        # peak from VmHWM: on Linux ru_maxrss keeps the parent's peak across exec.
        # scipy.linalg, which w_eigenvalues imports on first use, is loaded
        # before the baseline, as the lazily built matrices are.
        src = str(Path(smaup.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        code = (
            "import json\n"
            "from smaup import build_lattice_rook\n"
            "from smaup.sar import w_eigenvalues\n"
            "def peak_kb():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(ln.split()[1]) for ln in f if ln.startswith('VmHWM'))\n"
            "w = build_lattice_rook(40, 40)\n"
            "w.sparse, w.cardinalities\n"
            "import scipy.linalg\n"
            "before = peak_kb()\n"
            "w_eigenvalues(w)\n"
            "print(json.dumps({'grew_mb': (peak_kb() - before) / 1024}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        one_array_mb = 8 * 1600**2 / 2**20
        assert json.loads(proc.stdout)["grew_mb"] < 1.5 * one_array_mb


def independent_rows(side, seed):
    """A standardized W with each row drawn on its own: uniform(0.2, 1)
    weights on a rook lattice, normalised row by row.

    Unlike ``scaled_rows`` or D^-1 U with symmetric U, W is not similar to a
    symmetric matrix, and its spectrum has complex conjugate pairs.
    """
    base = build_lattice_rook(side, side)
    rng = np.random.default_rng(seed)
    weights = []
    for row in base.neighbors:
        draw = rng.uniform(0.2, 1.0, len(row))
        weights.append(tuple(draw / draw.sum()))
    return SpatialWeights(n=base.n, neighbors=base.neighbors, weights=tuple(weights))


def ring(n, forward, backward):
    """Non-standardized W on a cycle: weight ``forward`` to area i + 1 and
    ``backward`` to area i - 1. Its eigenvalues are forward * z + backward / z
    over the n-th roots of unity z; for odd n only z = 1 gives a real one."""
    neighbors = tuple(tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n))
    weights = tuple(
        tuple(forward if j == (i + 1) % n else backward for j in row)
        for i, row in enumerate(neighbors)
    )
    return SpatialWeights(n=n, neighbors=neighbors, weights=weights, standardized=False)


LOG_DET_WEIGHTS = {
    "standardized": lambda: build_lattice_rook(10, 10),
    "binary": lambda: build_lattice_rook(10, 10, standardized=False),
    "complex": lambda: independent_rows(10, 0),
    "ring": lambda: ring(11, 1.8, 0.2),
}


class TestLogDetErrorState:
    """The spectrum log-determinant sets no floating-point error state of its
    own; ``estimate_rho`` sets one per search. Values pinned from the code
    that set one per evaluation."""

    @pytest.mark.parametrize("name, digest, rho, rho_hat", [
        ("standardized", "b82987e2c2a811b6", 0.3, "0x1.06d9e47beffc3p-2"),
        ("binary", "708341124fb34b8a", 0.2, "0x1.7f52573e7b285p-3"),
        ("complex", "8dcb1b7fdc4af070", 0.3, "0x1.fd3a106956498p-3"),
        ("ring", "30af18bb4cc8b01d", None, None),
    ])
    def test_bitwise_as_before_and_no_warning_escapes(self, name, digest, rho, rho_hat):
        w = LOG_DET_WEIGHTS[name]()
        log_det = _log_det_function(w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.array([log_det(r) for r in np.linspace(-0.999, 0.999, 1001)])
            if rho is not None:
                got = estimate_rho(w, generate_sar(w, SarSpec(rho=rho, seed=4)))
                assert got.hex() == rho_hat
        assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == digest

    def test_search_silences_a_log_of_a_negative_term(self):
        # a cached spectrum holding lambda = 2, which no standardized W has,
        # makes 1 - rho * lambda negative past rho = 0.5, where the search goes
        w = build_lattice_rook(10, 10)
        lam = w_eigenvalues(w).copy()
        lam[-1] = 2.0
        w.__dict__["_sar_eigenvalues"] = lam
        y = generate_sar(w, SarSpec(rho=0.9, seed=1))
        with pytest.warns(RuntimeWarning):
            _log_det_function(w)(0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_rho(w, y) <= 0.5


class TestComplexSpectrum:
    @pytest.mark.parametrize("seed", range(4))
    def test_log_det_matches_slogdet(self, seed):
        w = independent_rows(10, seed)
        dense = w.sparse.toarray()
        assert np.abs(scipy.linalg.eigvals(dense).imag).max() > 0.01
        log_det = _log_det_function(w)
        for rho in (-0.95, -0.5, 0.0, 0.3, 0.7, 0.95):
            sign, expected = np.linalg.slogdet(np.eye(w.n) - rho * dense)
            assert sign == 1.0
            assert log_det(rho) == pytest.approx(expected, rel=0, abs=1e-10)

    def test_estimate_matches_sparse_lu(self, monkeypatch):
        w = independent_rows(10, 0)
        y = generate_sar(w, SarSpec(rho=0.5, seed=3))
        by_spectrum = estimate_rho(w, y)
        del w.__dict__["_sar_eigenvalues"]
        sparse_path(monkeypatch)
        assert abs(estimate_rho(w, y) - by_spectrum) <= 1e-6

    def test_stability_interval_from_real_eigenvalues(self):
        # the one real eigenvalue is 2, so only rho = 1/2 makes I - rho W
        # singular; the real parts reach 2 cos(10 pi / 11) = -1.92
        w = ring(11, forward=1.8, backward=0.2)
        lam = w_eigenvalues(w)
        assert np.count_nonzero(lam.imag == 0) == 1
        assert lam.real.min() < -1.9
        assert _eigenvalue_range(w) == pytest.approx((2.0, 2.0), rel=0, abs=1e-12)
        log_det = _log_det_function(w)
        for rho in (-0.99, -0.7, 0.2, 0.49):
            expected = np.linalg.slogdet(np.eye(w.n) - rho * w.sparse.toarray())[1]
            assert log_det(rho) == pytest.approx(expected, rel=0, abs=1e-10)
        assert log_det(0.5) == log_det(0.7) == -math.inf
        y = generate_sar(w, SarSpec(rho=-0.9, seed=0))
        eps = np.random.default_rng(0).standard_normal(w.n)
        assert np.allclose(y.values + 0.9 * (w.sparse @ y.values), eps, atol=1e-12)
        with pytest.raises(NumericalError, match="stability interval"):
            generate_sar(w, SarSpec(rho=0.5, seed=0))

    def test_sparse_side_ring_interval_from_spectrum(self, monkeypatch):
        # the ring's leftmost eigenvalues are all complex, with real parts
        # down to -1.92; the one real eigenvalue is 2
        monkeypatch.setattr(sar, "_SPARSE_MIN_N", 5)
        w = ring(11, forward=1.8, backward=0.2)
        assert _eigenvalue_range(w) == pytest.approx((2.0, 2.0), rel=0, abs=1e-12)
        y = generate_sar(w, SarSpec(rho=-0.9, seed=0))
        eps = np.random.default_rng(0).standard_normal(w.n)
        assert np.allclose(y.values + 0.9 * (w.sparse @ y.values), eps, atol=1e-12)
        with pytest.raises(NumericalError, match="stability interval"):
            generate_sar(w, SarSpec(rho=0.5, seed=0))

    def test_no_real_eigenvalue_bounds_no_rho(self):
        # W = [[0, 1], [-1, 0]] has eigenvalues +-i: I - rho W is never singular
        w = SpatialWeights(n=2, neighbors=((1,), (0,)), weights=((1.0,), (-1.0,)),
                           standardized=False)
        assert _eigenvalue_range(w) == (0.0, 0.0)
        y = generate_sar(w, SarSpec(rho=0.9, seed=0))
        eps = np.random.default_rng(0).standard_normal(w.n)
        assert np.allclose(y.values - 0.9 * (w.sparse @ y.values), eps, atol=1e-12)

    def test_sparse_side_interval_from_real_eigenvalues(self, monkeypatch):
        # 60 areas on a cycle, each joined to the two nearest on either side,
        # with cubed uniform weights; seed 33 puts a complex pair (real part
        # -0.760) left of every real eigenvalue
        rng = np.random.default_rng(33)
        neighbors = tuple(tuple(sorted({(i + d) % 60 for d in (-2, -1, 1, 2)})) for i in range(60))
        weights = tuple(tuple(rng.uniform(0.0, 1.0, 4) ** 3) for _ in neighbors)
        w = SpatialWeights(n=60, neighbors=neighbors, weights=weights, standardized=False)
        lam = scipy.linalg.eigvals(w.sparse.toarray())
        real = lam.real[lam.imag == 0]
        assert lam.real.min() < real.min() - 0.1
        sparse_path(monkeypatch)
        assert _eigenvalue_range(w) == pytest.approx((real.min(), real.max()), rel=1e-10)


def shuffled_rook(side, standardized):
    """A side x side rook lattice with its areas in a seeded random order.

    Rows are handed to ``from_dict`` in permuted, unsorted order, as a
    shuffled polygon file would produce them.
    """
    w = build_lattice_rook(side, side, standardized=standardized)
    perm = np.random.default_rng(side).permutation(w.n)
    new_index = np.argsort(perm)
    neighbors = [[int(new_index[j]) for j in w.neighbors[old]] for old in perm]
    weights = [[1.0 / len(row) if standardized else 1.0] * len(row) for row in neighbors]
    return SpatialWeights.from_dict(
        {"n": w.n, "neighbors": neighbors, "weights": weights, "standardized": standardized}
    )


def rook_extremes(rows, cols):
    """Exact (lambda_min, lambda_max) of a binary rook lattice."""
    top = 2.0 * math.cos(math.pi / (rows + 1)) + 2.0 * math.cos(math.pi / (cols + 1))
    return -top, top


def spectrum_path(monkeypatch):
    """Force the eigenvalue path."""
    monkeypatch.setattr(sar, "_SPARSE_MIN_N", 10**9)


def sparse_path(monkeypatch):
    monkeypatch.setattr(sar, "_SPARSE_MIN_N", 10)


@pytest.fixture(scope="module", params=[True, False], ids=["standardized", "binary"])
def shuffled_grids(request):
    return {side: shuffled_rook(side, request.param) for side in (20, 30, 40, 45)}


class TestSparsePath:
    def test_size_rule(self):
        assert 900 < sar._SPARSE_MIN_N <= 2025
        assert not hasattr(sar, "_DENSE_SOLVE_LIMIT")

    @pytest.mark.parametrize("side", [20, 30, 40, 45])
    def test_estimate_matches_spectrum_path(self, monkeypatch, shuffled_grids, side):
        w = shuffled_grids[side]
        rho = 0.5 if w.standardized else 0.15
        y = generate_sar(w, SarSpec(rho=rho, seed=side))
        spectrum_path(monkeypatch)
        by_spectrum = estimate_rho(w, y)
        sparse_path(monkeypatch)
        by_lu = estimate_rho(w, y)
        assert abs(by_lu - by_spectrum) <= 1e-6
        assert abs(by_lu - rho) < 0.1

    @pytest.mark.parametrize("side", [20, 45])
    def test_log_det_matches_spectrum(self, monkeypatch, shuffled_grids, side):
        w = shuffled_grids[side]
        rhos = [-0.9, -0.5, 0.0, 0.3, 0.7, 0.95] if w.standardized else [-0.24, -0.1, 0.1, 0.24]
        spectrum_path(monkeypatch)
        by_spectrum = _log_det_function(w)
        sparse_path(monkeypatch)
        by_lu = _log_det_function(w)
        for rho in rhos:
            assert by_lu(rho) == pytest.approx(by_spectrum(rho), rel=0, abs=1e-10)

    def test_factorises_with_default_colamd_ordering(self, monkeypatch):
        # per factorisation on a shuffled 45 x 45 grid (2-core Xeon, one BLAS thread):
        # MMD_AT_PLUS_A 37 ms, COLAMD 6.8 ms; one rho search orders its columns
        # once and factors the other 33 times in that order
        orderings = []
        splu = scipy.sparse.linalg.splu

        def spy(a, *args, **kwargs):
            orderings.append(kwargs.get("permc_spec", args[0] if args else "COLAMD"))
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        w = shuffled_rook(32, True)
        y = generate_sar(w, SarSpec(rho=0.5, seed=1))
        assert orderings == ["COLAMD"]
        orderings.clear()
        estimate_rho(w, y)
        assert len(orderings) > 30
        assert orderings == ["COLAMD"] + ["NATURAL"] * (len(orderings) - 1)

    @pytest.mark.parametrize("standardized", [True, False], ids=["standardized", "binary"])
    @pytest.mark.parametrize("layout", ["shuffled", "row-major"])
    def test_log_det_bitwise_equals_per_rho_colamd(self, monkeypatch, standardized, layout):
        # fresh grids, so no spectrum is cached; rho = 0 comes first: its
        # matrix is the identity, whose ordering must not be the one reused
        sparse_path(monkeypatch)
        eye = scipy.sparse.identity
        for side in (20, 30, 40, 45):
            if layout == "shuffled":
                w = shuffled_rook(side, standardized)
            else:
                w = build_lattice_rook(side, side, standardized=standardized)
            top = 0.99 if standardized else 0.24
            rhos = [0.0, *np.random.default_rng(side).uniform(-top, top, 24), top, -top, 0.0]
            log_det = _log_det_function(w)
            w_csc = w.sparse.tocsc()
            for rho in rhos:
                lu = scipy.sparse.linalg.splu(eye(w.n, format="csc") - rho * w_csc)
                assert log_det(rho) == float(np.sum(np.log(np.abs(lu.U.diagonal())))), (side, rho)

    # rho_hat and a sha256 prefix of every (rho, log det) the search
    # evaluates, as a COLAMD factorisation per rho gives them (shuffled_rook)
    PINNED_SEARCHES = {
        (True, 20): ("0x1.be4a4a1051a8ep-2", "b9644f81ed9fd74d"),
        (True, 30): ("0x1.1be6aaf2a7750p-1", "401922133363ceba"),
        (True, 40): ("0x1.01711a853c622p-1", "5611ca638969bf7f"),
        (True, 45): ("0x1.eb147b60b8a61p-2", "97aa54656bd8e5cf"),
        (False, 20): ("0x1.17c2e92558250p-3", "f8cbd68a79dc5883"),
        (False, 30): ("0x1.4bf7977d1ce19p-3", "f21a70a50c01b86c"),
        (False, 40): ("0x1.365d92525d73ep-3", "4d0ed8c60385c0e1"),
        (False, 45): ("0x1.2c05125a87a08p-3", "3f80d1d5909fc910"),
    }

    @pytest.mark.parametrize("standardized", [True, False], ids=["standardized", "binary"])
    @pytest.mark.parametrize("side", [20, 30, 40, 45])
    def test_estimate_bitwise_pinned(self, monkeypatch, standardized, side):
        w = shuffled_rook(side, standardized)
        sparse_path(monkeypatch)
        y = generate_sar(w, SarSpec(rho=0.5 if standardized else 0.15, seed=side))
        evaluations = []
        log_det_function = sar._log_det_function

        def recording(w_):
            log_det = log_det_function(w_)

            def record(rho):
                evaluations.append((rho, log_det(rho)))
                return evaluations[-1][1]

            return record

        monkeypatch.setattr(sar, "_log_det_function", recording)
        rho_hat = estimate_rho(w, y)
        trace = hashlib.sha256(repr(evaluations).encode()).hexdigest()[:16]
        assert (rho_hat.hex(), trace) == self.PINNED_SEARCHES[(standardized, side)]

    def test_binary_stability_interval_from_lanczos(self):
        w = build_lattice_rook(51, 51, standardized=False)
        lo, hi = _eigenvalue_range(w)
        assert (lo, hi) == pytest.approx(rook_extremes(51, 51), rel=0, abs=1e-12)
        assert w.__dict__["_sar_eigenvalue_range"] == (lo, hi)
        for rho in (1.0 / hi + 1e-6, 0.3, 0.9, 1.0 / lo - 1e-6, -0.3):
            with pytest.raises(NumericalError, match="stability interval"):
                generate_sar(w, SarSpec(rho=rho, seed=0))
        spec = SarSpec(rho=0.25, seed=0)
        y = generate_sar(w, spec)
        eps = np.random.default_rng(0).standard_normal(w.n)
        assert np.allclose(y.values - spec.rho * (w.sparse @ y.values), eps, atol=1e-9)

    def test_asymmetric_weights_interval_from_spectrum(self, monkeypatch):
        base = build_lattice_rook(15, 15, standardized=False)
        w, scale = scaled_rows(base, seed=7)
        root = np.sqrt(scale)
        lam = scipy.linalg.eigvalsh(root[:, None] * base.sparse.toarray() * root[None, :])
        sparse_path(monkeypatch)
        assert _eigenvalue_range(w) == pytest.approx((lam[0], lam[-1]), rel=1e-10)

    def test_binary_likelihood_is_minus_inf_outside_the_interval(self):
        w = build_lattice_rook(51, 51, standardized=False)
        y = generate_sar(w, SarSpec(rho=0.2, seed=5))
        lo, hi = rook_extremes(51, 51)
        loglik = _concentrated_loglik_terms(w, y.values)
        for rho in (1.0 / hi + 1e-6, 0.26, 0.5, 0.99, 1.0 / lo - 1e-6, -0.5):
            assert loglik(rho) == -math.inf
        for rho in (1.0 / hi - 1e-3, 0.0, 1.0 / lo + 1e-3):
            assert math.isfinite(loglik(rho))
        assert 1.0 / lo < estimate_rho(w, y) < 1.0 / hi

    @pytest.mark.parametrize("standardized", [True, False], ids=["standardized", "binary"])
    def test_cached_spectrum_serves_every_size(self, monkeypatch, standardized):
        w = shuffled_rook(20, standardized)
        rho = 0.5 if standardized else 0.15
        y = generate_sar(w, SarSpec(rho=rho, seed=3))
        spectrum_path(monkeypatch)
        by_spectrum = estimate_rho(w, y)
        sparse_path(monkeypatch)
        factorisations = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **kw: factorisations.append(1) or splu(*a, **kw))
        assert estimate_rho(w, y) == by_spectrum
        assert factorisations == []
        del w.__dict__["_sar_eigenvalues"]
        assert abs(estimate_rho(w, y) - by_spectrum) <= 1e-6
        assert len(factorisations) > 30

    @pytest.mark.parametrize("standardized", [True, False], ids=["standardized", "binary"])
    def test_monte_carlo_caches_the_spectrum_before_fanning_out(self, monkeypatch, standardized):
        # at rho = 0 no field is solved, so every factorisation would be a log-det
        w = build_lattice_rook(10, 10, standardized=standardized)
        sparse_path(monkeypatch)
        factorisations = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **kw: factorisations.append(1) or splu(*a, **kw))
        smaup.generate_null(w, 0.0, replicates=3, r=3, master_seed=1)
        assert factorisations == []
        assert "_sar_eigenvalues" in w.__dict__
        assert "dense" not in w.__dict__

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs procfs")
    def test_large_lattice_in_bounded_memory(self):
        # the child reads its own peak from VmHWM: on Linux ru_maxrss keeps
        # the parent's (here the test runner's) peak across exec
        src = str(Path(smaup.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        code = (
            "import json\n"
            "from smaup import SarSpec, build_lattice_rook, estimate_rho, generate_sar\n"
            "out = []\n"
            "for standardized, rho in ((True, 0.5), (False, 0.2)):\n"
            "    w = build_lattice_rook(100, 100, standardized=standardized)\n"
            "    rho_hat = estimate_rho(w, generate_sar(w, SarSpec(rho=rho, seed=1)))\n"
            "    out.append([rho, rho_hat, sorted(w.__dict__)])\n"
            "with open('/proc/self/status') as f:\n"
            "    peak = next(int(ln.split()[1]) for ln in f if ln.startswith('VmHWM')) / 1024\n"
            "print(json.dumps({'peak_mb': peak, 'runs': out}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        doc = json.loads(proc.stdout)
        assert doc["peak_mb"] < 400
        for rho, rho_hat, cached in doc["runs"]:
            assert abs(rho_hat - rho) < 0.05
            assert "dense" not in cached
            assert "_sar_eigenvalues" not in cached


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
