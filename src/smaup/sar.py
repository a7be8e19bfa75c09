"""SAR random fields: generation, autoregressive-parameter estimation, and
rank-matching permutation toward a target level of spatial autocorrelation.

A SAR field solves ``(I - rho * W) y = eps`` with standard-normal innovations.
The autoregressive parameter of an observed variable is recovered by maximum
likelihood: the concentrated log-likelihood of the intercept-only spatial lag
model. ML is one of several possible estimators; it is used here because it
is exact and, with the log-determinant evaluated as below, fast at every size.

log det(I - rho W) comes from one of two places. The eigenvalues of W,
computed once and cached on the weights, make every later evaluation O(n),
so they serve whenever they are cached: a Monte Carlo run (``experiments``)
computes them before it fans out and amortizes them over hundreds of
estimates. Otherwise one size rule, ``_SPARSE_MIN_N``, decides. Below it
(every size of the critical-value table) the spectrum is computed on first
use. At and above it, where a single estimate costs less by sparse LU than
one cold eigendecomposition, each evaluation factorises (I - rho W) by
sparse LU (Barry & Pace 1999; LeSage & Pace 2009, ch. 4) and sums
log|diag U|, and no n x n array is built. One rho search computes a single
COLAMD column ordering (Davis et al. 2004) and reuses it for every later
factorisation, since the sparsity pattern does not change with rho. The same
rule picks a dense or a sparse-LU SAR solve. A symmetric non-standardized W
on the sparse side gets its stability interval from two Lanczos runs for its
extreme eigenvalues, and any other W from its spectrum.

A simulation draws field after field at the same few rho levels on the same
lattices, so the SAR solve factors (I - rho W) once per (W, rho) for the
life of the process: a dense LU below ``_SPARSE_MIN_N``, a SuperLU from it
on, kept in a small module-level cache keyed on W's contents (see
``generate_sar``). Every later field at that (W, rho) costs two triangular
solves, bit for bit the result of solving it afresh.

scipy is imported inside the functions that call it, not at module level,
so ``import smaup`` and the commands that never solve or factorise
(``smaup weights``) do not pay for loading it.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    InsufficientDataError,
    NumericalError,
    RetryExhaustedError,
    ShapeMismatchError,
)
from .seeding import derive_seed
from .weights import SpatialWeights

__all__ = [
    "AreaVariable",
    "SarSpec",
    "generate_sar",
    "estimate_rho",
    "rank_permute",
    "generate_with_target_rho",
    "w_eigenvalues",
    "area_variable_to_csv",
    "area_variable_from_csv",
]

# From this many areas on, rho estimation and the SAR solve factorise
# (I - rho W) by sparse LU instead of using W's eigenvalues and a dense solve.
# It is the single-shot crossover of one estimate_rho call on shuffled rook
# grids, one BLAS thread (2-core Xeon, numpy 2.4, scipy 1.17): cold spectrum
# vs sparse LU 0.098 vs 0.094 s at n=900, 0.167 vs 0.134 s at 1024, 0.96 vs
# 0.31 s at 2025. Every table size (n <= 900) stays below it, where a Monte
# Carlo run reuses one spectrum for hundreds of estimates. A spectrum already
# cached on the weights is used at any size (see ``w_eigenvalues``).
_SPARSE_MIN_N = 1000

# Solvers of (I - rho W) kept per process by ``_solve``, least recently used
# first out: one per tabulated rho level, so a run over the grid on one
# lattice keeps all of them. A dense one holds 8 n^2 bytes, 6.5 MB at n = 900.
_SOLVERS_KEPT = 9
_solvers: OrderedDict = OrderedDict()
_solvers_lock = threading.Lock()

_RHO_SEARCH_LO = -0.999
_RHO_SEARCH_HI = 0.999
_RHO_SEARCH_TOL = 1e-6


@dataclass(frozen=True)
class AreaVariable:
    """A real-valued attribute vector tied to the weights object it lives on.

    ``meta`` carries optional provenance (e.g. permutation attempts) and is
    ignored by equality comparisons.
    """

    values: np.ndarray
    weights: SpatialWeights
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ShapeMismatchError(f"values must be 1-D, got shape {vals.shape}")
        if vals.shape[0] != self.weights.n:
            raise ShapeMismatchError(
                f"variable has {vals.shape[0]} values but weights has n={self.weights.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise DegenerateInputError("variable contains non-finite values")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, AreaVariable):
            return NotImplemented
        return self.weights == other.weights and np.array_equal(self.values, other.values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SarSpec:
    """Generation recipe for one SAR field: autoregressive parameter + seed.

    Innovations are fixed to i.i.d. standard normal.
    """

    rho: float
    seed: int = 0

    def __post_init__(self):
        _check_rho(self.rho)


def _check_rho(rho: float) -> float:
    """``rho`` if |rho| < 1; a non-finite or larger rho raises NumericalError."""
    if not abs(rho) < 1:
        raise NumericalError(f"|rho| must be < 1, got rho={rho}")
    return rho


def generate_sar(w: SpatialWeights, spec: SarSpec) -> AreaVariable:
    """Draw one SAR field ``y = (I - rho W)^{-1} eps`` on ``w``.

    Identical (w, spec) inputs give bitwise-identical output. With rho = 0
    the raw innovation draw is returned unchanged.

    At rho != 0 the process keeps one solver of (I - rho W) per (W, rho):
    a dense LU below ``_SPARSE_MIN_N`` areas, a SuperLU from there on. The
    first field at a (W, rho) factors it; every later one, on ``w`` or on
    any weights with the same matrix, only solves with the kept factor, and
    gets the bits a fresh solve gives (``_solve``). At most nine solvers are
    kept, one per tabulated rho level, least recently used out first (up to
    9 x 6.5 MB dense factors at n = 900). They live in this module, not on
    ``w``: weights travel to worker processes by pickle, and a factor is up
    to 8 n^2 bytes.

    Raises
    ------
    NumericalError
        If W is not row-standardized and rho lies outside its stability
        interval (1 / lambda_min, 1 / lambda_max), or if (I - rho W) is
        singular (then nothing is kept). Row-standardized W has
        lambda_max = 1 and lambda_min <= -1, so ``SarSpec``'s |rho| < 1
        already keeps it stable.
    """
    if not w.standardized and spec.rho != 0.0:
        lo, hi = _eigenvalue_range(w)
        if not _stable(spec.rho, lo, hi):
            raise NumericalError(
                f"rho={spec.rho} is outside the stability interval (1/lambda_min, "
                f"1/lambda_max) of the non-standardized weights, with eigenvalues "
                f"in [{lo:.6g}, {hi:.6g}]"
            )
    rng = np.random.default_rng(spec.seed)
    eps = rng.standard_normal(w.n)
    if spec.rho == 0.0:
        return AreaVariable(values=eps, weights=w)
    y = _solve(w, spec.rho, eps)
    if not np.all(np.isfinite(y)):
        raise NumericalError(f"(I - rho W) solve produced non-finite values at rho={spec.rho}")
    return AreaVariable(values=y, weights=w)


def _solve(w: SpatialWeights, rho: float, b: np.ndarray) -> np.ndarray:
    """(I - rho W)^-1 b by the process's kept solver for (I - rho W), made on
    first use (see ``generate_sar``).

    A solver is keyed on W's CSR arrays (equal weights give equal arrays),
    rho, and the solver kind ``_SPARSE_MIN_N`` picks, so a changed size rule
    never hands back the other kind's solver. From ``_SPARSE_MIN_N`` areas
    on it is a SuperLU's ``solve``. Below, it is ``lu_solve`` on an
    ``lu_factor``, the same LAPACK calls, so the same bits, as
    ``scipy.linalg.solve`` on a general matrix. That function picks a
    structured solver for a triangular, tridiagonal or symmetric matrix, so
    a matrix that may be one of these (bandwidth below 2 on a side, such
    as a path of areas, or a symmetric W) keeps ``scipy.linalg.solve``
    itself as its solver. A solver is kept only after its first solve
    succeeds; an exactly singular matrix raises NumericalError. ``lu_factor``
    only warns of a zero pivot, so that warning is raised as an error here.
    """
    import scipy.linalg

    sparse = w.n >= _SPARSE_MIN_N
    w_csr = w.sparse
    digest = hashlib.sha1(w_csr.indptr, usedforsecurity=False)
    digest.update(w_csr.indices)
    digest.update(w_csr.data)
    key = (digest.digest(), rho, sparse)
    with _solvers_lock:
        solver = _solvers.get(key)
        if solver is not None:
            _solvers.move_to_end(key)
    if solver is not None:
        return solver(b)
    try:
        if sparse:
            solver = _sparse_lu(w_csr.tocsc(), rho).solve
        else:
            a = np.eye(w.n) - rho * w_csr.toarray()
            if min(scipy.linalg.bandwidth(a)) < 2 or scipy.linalg.issymmetric(a):
                solver = functools.partial(scipy.linalg.solve, a)
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                    factor = scipy.linalg.lu_factor(a, check_finite=False)
                solver = functools.partial(scipy.linalg.lu_solve, factor, check_finite=False)
        y = solver(b)
    except (scipy.linalg.LinAlgWarning, np.linalg.LinAlgError, RuntimeError) as exc:
        raise NumericalError(f"(I - rho W) is singular at rho={rho}") from exc
    with _solvers_lock:
        _solvers[key] = solver
        if len(_solvers) > _SOLVERS_KEPT:
            _solvers.popitem(last=False)
    return y


def _has_spectrum(w: SpatialWeights) -> bool:
    """True iff the eigenvalue path applies: small W, or spectrum already cached."""
    return w.n < _SPARSE_MIN_N or "_sar_eigenvalues" in w.__dict__


def w_eigenvalues(w: SpatialWeights) -> np.ndarray:
    """Eigenvalues of W, ascending, cached on the weights object.

    A caller about to estimate rho many times on one W, such as a Monte
    Carlo run before it fans out to workers (the cache travels with the
    pickled weights), calls this once. Every later ``estimate_rho`` on ``w``
    then evaluates log det(I - rho W) from the spectrum in O(n), at any
    size; without it, ``_SPARSE_MIN_N`` areas and up take 30-odd sparse LU
    factorisations per estimate. The first call costs O(n^3) time and one
    n x n array, which is not cached on ``w``.

    When every row of W is 1/degree, W = D^-1 A with symmetric binary A is
    similar to the symmetric D^-1/2 A D^-1/2. That, or any symmetric W, goes
    to the symmetric eigensolver in place; any other W, including a
    standardized one with unequal weights in a row, to the general one. A
    general spectrum stays complex, sorted by real and then imaginary part,
    unless every eigenvalue is real. The cache write is idempotent
    (first-writer-wins under concurrency).
    """
    cached = w.__dict__.get("_sar_eigenvalues")
    if cached is not None:
        return cached
    import scipy.linalg

    deg = w.cardinalities.astype(np.float64)
    deg[deg == 0] = 1.0  # isolated areas contribute a zero eigenvalue either way
    a = w.sparse.toarray()  # the one n x n array, scaled in place
    if w.standardized and np.array_equal(w.sparse.data, np.repeat(1.0 / deg, w.cardinalities)):
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        np.sign(a, out=a)  # binary A: every stored weight is 1 / degree > 0
        a *= d_inv_sqrt[:, None]
        a *= d_inv_sqrt
    if np.array_equal(a, a.T):  # symmetric, as in _eigenvalue_range
        lam = scipy.linalg.eigvalsh(a.T, overwrite_a=True)  # a.T: the same matrix, Fortran order
    else:
        lam = np.sort(scipy.linalg.eigvals(a, overwrite_a=True))
        if not lam.imag.any():
            lam = lam.real
    lam = np.ascontiguousarray(lam)
    lam.flags.writeable = False
    w.__dict__["_sar_eigenvalues"] = lam
    return lam


def _real_range(lam: np.ndarray) -> tuple[float, float] | None:
    """Smallest and largest real eigenvalue among ``lam``, or None if it holds none.

    For real rho, only a real eigenvalue lambda makes (I - rho W) singular,
    at rho = 1/lambda, so the stability interval comes from the real
    eigenvalues alone (LeSage & Pace 2009, sec. 4.1).
    """
    real = lam.real[lam.imag == 0]
    return (float(real.min()), float(real.max())) if real.size else None


def _eigenvalue_range(w: SpatialWeights) -> tuple[float, float]:
    """Smallest and largest real eigenvalue of W (see ``_real_range``).

    A symmetric W from ``_SPARSE_MIN_N`` areas up with no cached spectrum,
    which covers every non-standardized W the constructors build at that
    size, gets them from two Lanczos runs (``eigsh``) from a fixed start
    vector, so the pair is deterministic, and the pair is cached on the
    weights object like the spectrum. Every other W reads them off its
    spectrum. A W with no real eigenvalue at all (possible only with
    negative weights) makes no real rho singular and gets (0, 0), which
    bounds nothing.
    """
    if not _has_spectrum(w):
        cached = w.__dict__.get("_sar_eigenvalue_range")
        if cached is not None:
            return cached
        a = w.sparse
        if not (a != a.T).nnz:
            import scipy.sparse.linalg as spla

            v0 = np.random.default_rng(0).uniform(0.5, 1.5, w.n)
            lo, hi = (float(spla.eigsh(a, k=1, which=which, v0=v0, return_eigenvectors=False)[0])
                      for which in ("SA", "LA"))
            w.__dict__["_sar_eigenvalue_range"] = (lo, hi)
            return lo, hi
    return _real_range(w_eigenvalues(w)) or (0.0, 0.0)


def _stable(rho: float, lo: float, hi: float) -> bool:
    """True iff rho lies in the stability interval (1 / lo, 1 / hi) of W."""
    return not ((lo < 0.0 and rho <= 1.0 / lo) or (hi > 0.0 and rho >= 1.0 / hi))


def _sparse_lu(w_csc, rho: float):
    """SuperLU factorisation of (I - rho W), default COLAMD column ordering."""
    import scipy.sparse as sp
    import scipy.sparse.linalg

    return scipy.sparse.linalg.splu(sp.identity(w_csc.shape[0], format="csc") - rho * w_csc)


def _log_det_function(w: SpatialWeights):
    """log det(I - rho W) as a function of rho, -inf where it does not exist.

    Below ``_SPARSE_MIN_N``, or when the spectrum is cached, it sums
    log|1 - rho * lambda| over the eigenvalues of W: log1p(-rho * lambda) for
    a real spectrum, and for a complex one the modulus, so that a conjugate
    pair adds log|1 - rho * lambda|^2. Otherwise it sums log|diag U| of a
    sparse LU factorisation. |det| stays finite outside the stability
    interval, so a non-standardized W is bounded explicitly on both paths.

    Every rho != 0 gives (I - rho W) the same sparsity pattern, so the
    COLAMD column ordering is computed once, by the first such evaluation.
    Later evaluations factor the column-permuted matrix in natural order,
    which yields the same U bit for bit without reordering.

    It sets no floating-point error state; :func:`estimate_rho` sets one per
    search, not one per evaluation.
    """
    bounds = None if w.standardized else _eigenvalue_range(w)
    if _has_spectrum(w):
        lam = w_eigenvalues(w)
        complex_spectrum = np.iscomplexobj(lam)

        def log_det(rho: float) -> float:
            if bounds is not None and not _stable(rho, *bounds):
                return -math.inf
            terms = np.log(np.abs(1.0 - rho * lam)) if complex_spectrum else np.log1p(-rho * lam)
            return float(terms.sum())

        return log_det

    import scipy.sparse as sp
    import scipy.sparse.linalg

    w_csc = w.sparse.tocsc()
    eye = sp.identity(w.n, format="csc")
    permc_spec = "COLAMD"

    def log_det(rho: float) -> float:
        nonlocal eye, w_csc, permc_spec
        if bounds is not None and not _stable(rho, *bounds):
            return -math.inf
        try:
            lu = scipy.sparse.linalg.splu(eye - rho * w_csc, permc_spec=permc_spec)
        except RuntimeError:  # exactly singular
            return -math.inf
        if permc_spec == "COLAMD" and rho != 0.0:  # at rho = 0 only the diagonal is stored
            inv = np.argsort(lu.perm_c)
            eye, w_csc, permc_spec = eye[:, inv], w_csc[:, inv], "NATURAL"
        return float(np.sum(np.log(np.abs(lu.U.diagonal()))))

    return log_det


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section search for the maximizer of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _concentrated_loglik_terms(w: SpatialWeights, y: np.ndarray):
    """Precompute the pieces of the concentrated log-likelihood in rho.

    Intercept-only spatial lag model: residuals of y and Wy on the constant,
    sum of squares expressed as a quadratic in rho, plus log det(I - rho W)
    from ``_log_det_function``.
    """
    n = y.shape[0]
    wy = w.sparse @ y
    e0 = y - y.mean()
    e1 = wy - wy.mean()
    s00 = float(e0 @ e0)
    s01 = float(e0 @ e1)
    s11 = float(e1 @ e1)
    log_det = _log_det_function(w)

    def loglik(rho: float) -> float:
        sse = s00 - 2.0 * rho * s01 + rho * rho * s11
        if sse <= 0.0 or not math.isfinite(sse):
            return -math.inf
        # outside the stable range of non-standardized W the log-determinant
        # does not exist; treat that region as infinitely unlikely
        logdet = log_det(rho)
        if not math.isfinite(logdet):
            return -math.inf
        return -(n / 2.0) * math.log(sse / n) + logdet

    return loglik


def estimate_rho(w: SpatialWeights, y: AreaVariable) -> float:
    """Maximum-likelihood estimate of the SAR autoregressive parameter of y.

    Maximizes the concentrated log-likelihood over rho in (-0.999, 0.999)
    by golden-section search to 1e-6, with log det(I - rho W) evaluated via
    the cached eigenvalues of W, or by sparse LU from ``_SPARSE_MIN_N``
    areas on unless ``w_eigenvalues(w)`` ran (see the module docstring).

    Raises
    ------
    DegenerateInputError
        If y is constant (the likelihood is undefined).
    InsufficientDataError
        If n < 10.
    """
    if y.values.shape[0] != w.n:
        raise ShapeMismatchError(
            f"variable length {y.values.shape[0]} does not match weights n={w.n}"
        )
    if w.n < 10:
        raise InsufficientDataError(f"rho estimation needs n >= 10, got n={w.n}")
    vals = y.values
    if np.ptp(vals) == 0.0:
        raise DegenerateInputError("cannot estimate rho of a constant variable")
    loglik = _concentrated_loglik_terms(w, vals)
    # one error state for the whole search: a log-determinant term 1 - rho * lambda
    # <= 0 (rounding at the edge of the stability interval) or a zero diagonal of
    # U gives -inf or nan, which loglik already treats as infinitely unlikely
    with np.errstate(invalid="ignore", divide="ignore"):
        rho_hat = _golden_section_max(loglik, _RHO_SEARCH_LO, _RHO_SEARCH_HI, _RHO_SEARCH_TOL)
        if not math.isfinite(loglik(rho_hat)):
            raise DegenerateInputError("likelihood is non-finite at the optimum")
    return float(rho_hat)


def rank_permute(y_source: AreaVariable, x_reference: AreaVariable) -> AreaVariable:
    """Permute the values of ``y_source`` to match the rank order of ``x_reference``.

    The highest value of y goes to the area holding the highest value of x,
    the second highest to the second highest, and so on. Ties in x are broken
    deterministically by area index (a stable sort, equivalent to an
    infinitesimal index-ordered jitter).

    The output is an exact permutation: its sorted values equal the sorted
    values of ``y_source``.
    """
    if y_source.n != x_reference.n:
        raise ShapeMismatchError(
            f"length mismatch: y has {y_source.n}, x has {x_reference.n}"
        )
    order = np.argsort(x_reference.values, kind="stable")
    out = np.empty_like(y_source.values)
    out[order] = np.sort(y_source.values)
    return AreaVariable(values=out, weights=y_source.weights)


def generate_with_target_rho(
    w: SpatialWeights,
    y_base: AreaVariable,
    target: float,
    window: float = 0.5,
    max_retries: int = 100,
    seed: int = 0,
) -> AreaVariable:
    """Spatially redistribute ``y_base`` until its estimated rho hits a target.

    Each attempt draws a reference SAR field at ``target``, rank-permutes
    ``y_base`` onto it, and accepts the permutation iff the estimated rho lies
    strictly inside (target - window, target + window). The result therefore
    has exactly the same value multiset (hence mean and variance) as
    ``y_base``, while its spatial arrangement carries the target
    autocorrelation. ``meta`` on the result records attempts used and the
    achieved estimate.

    Raises
    ------
    NumericalError
        Unless |target| < 1 and window > 0.
    ValueError
        If ``max_retries`` < 1, before any draw.
    RetryExhaustedError
        After ``max_retries`` failed attempts; carries the closest attempt.
    """
    _check_rho(target)
    if not window > 0:
        raise NumericalError(f"window must be positive, got {window}")
    if max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    best: AreaVariable | None = None
    best_rho = math.nan
    best_gap = math.inf
    for attempt in range(1, max_retries + 1):
        ref = generate_sar(w, SarSpec(rho=target, seed=derive_seed(seed, attempt)))
        candidate = rank_permute(y_base, ref)
        rho_hat = estimate_rho(w, candidate)
        gap = abs(rho_hat - target)
        if gap < window:
            return AreaVariable(
                values=candidate.values,
                weights=w,
                meta={"attempts": attempt, "rho_estimate": rho_hat, "target": target},
            )
        if gap < best_gap:
            best, best_rho, best_gap = candidate, rho_hat, gap
    raise RetryExhaustedError(
        f"no permutation reached rho in ({target - window}, {target + window}) "
        f"after {max_retries} attempts; best estimate {best_rho:.4f}",
        best_attempt=best,
        best_rho=best_rho,
    )


def area_variable_to_csv(y: AreaVariable) -> str:
    """Single-column CSV of the values under a ``value`` header; row order is
    area index order."""
    lines = ["value"]
    lines.extend(repr(float(v)) for v in y.values)
    return "\n".join(lines) + "\n"


def area_variable_from_csv(text: str, w: SpatialWeights) -> AreaVariable:
    """Parse a single-column CSV (optional ``value`` header, ``#`` comments)."""
    values = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() == "value":
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ShapeMismatchError(f"not a number: {line!r}") from None
    return AreaVariable(values=np.asarray(values, dtype=np.float64), weights=w)
