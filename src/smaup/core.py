"""The MAUP-sensitivity statistic and hypothesis test.

The statistic M(rho, theta) maps the spatial autocorrelation of a variable
(rho) and its aggregation ratio (theta = k/N) to (0, 1): values near one mean
the variable's distribution will be badly distorted by aggregating N areas
into k regions, values near zero mean it is safe. The closed form is an
inverted logistic in rho whose ceiling, onset, and decline speed are
themselves functions of theta:

    M(rho, theta) = L(theta) / (1 + eta(theta) * exp(tau(theta) * rho))

with L an inverse logistic in theta, eta a power law, and tau affine. The
six constants were calibrated once against large-scale aggregation
simulations and ship as the read-only mapping :data:`DEFAULT_PARAMS`.

The one-sided test rejects the null of non-sensitivity when M exceeds the
tabulated critical value for (N, rho) at the requested level, and can also
report an empirical pseudo-p against a user-supplied simulated null vector.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ._version import __version__ as _toolkit_version
from .critical_values import ALPHA_GRID, RHO_GRID, _check_alpha, _rho_row, critical_value
from .errors import DegenerateInputError, InvalidAlphaError, InvalidKError, ShapeMismatchError
from .sar import AreaVariable, _check_rho, estimate_rho
from .seeding import _is_integer
from .stats import pseudo_p as _pseudo_p
from .weights import SpatialWeights

__all__ = [
    "DEFAULT_PARAMS",
    "SmaupResult",
    "l_of_theta",
    "eta_of_theta",
    "tau_of_theta",
    "m_statistic",
    "smaup_test",
    "scan_k",
    "min_safe_k",
]


# The published calibration of the closed form: ``logistic_*`` shape the
# ceiling L(theta), ``power_*`` the onset eta(theta), ``tau_*`` the decline
# speed tau(theta). Read-only; every test result records it under "params".
DEFAULT_PARAMS = MappingProxyType({
    "logistic_intercept": -2.188,  # b
    "logistic_slope": 7.031,       # m
    "power_scale": 0.516,          # p
    "power_exponent": 1.287,       # a
    "tau_intercept": 5.319,        # beta0
    "tau_slope": -5.532,           # beta1
})


def l_of_theta(theta):
    """Ceiling of the statistic: inverse logistic 1 / (1 + e^(b + m*theta)).

    Strictly decreasing in theta for positive slope: heavy aggregation
    (small theta) allows sensitivity near 0.9, no aggregation (theta = 1)
    caps it near zero.
    """
    theta = np.asarray(theta, dtype=np.float64)
    out = 1.0 / (1.0 + np.exp(DEFAULT_PARAMS["logistic_intercept"] + DEFAULT_PARAMS["logistic_slope"] * theta))
    return float(out) if out.ndim == 0 else out


def eta_of_theta(theta):
    """Decline-onset factor: power law p * theta^a, increasing on (0, 1]."""
    theta = np.asarray(theta, dtype=np.float64)
    out = DEFAULT_PARAMS["power_scale"] * np.power(theta, DEFAULT_PARAMS["power_exponent"])
    return float(out) if out.ndim == 0 else out


def tau_of_theta(theta):
    """Decline-speed factor: affine beta0 + beta1 * theta.

    Positive for theta below ~0.9615 with default constants, negative above;
    its sign sets whether M falls or rises in rho.
    """
    theta = np.asarray(theta, dtype=np.float64)
    out = DEFAULT_PARAMS["tau_intercept"] + DEFAULT_PARAMS["tau_slope"] * theta
    return float(out) if out.ndim == 0 else out


def m_statistic(rho, theta):
    """The sensitivity statistic M(rho, theta) = L / (1 + eta * e^(tau*rho)).

    Always strictly inside (0, L(theta)) because the denominator exceeds 1.
    Accepts scalars or broadcastable arrays. The model holds for |rho| < 1,
    where a non-finite or larger rho anywhere raises NumericalError, and for
    theta = k/N in (0, 1], where any other theta raises InvalidKError.
    """
    rho = np.asarray(rho, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    outside = ~(np.abs(rho) < 1)
    if outside.any():
        _check_rho(float(rho[outside].flat[0]))
    outside = ~((theta > 0) & (theta <= 1))
    if outside.any():
        raise InvalidKError(f"theta = k/N must lie in (0, 1], got theta={float(theta[outside].flat[0])}")
    den = 1.0 + eta_of_theta(theta) * np.exp(tau_of_theta(theta) * rho)
    out = l_of_theta(theta) / den
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SmaupResult:
    """Outcome of one MAUP-sensitivity test: what the test measured, with a
    ``pseudo_p`` only when a simulated null vector was supplied. ``theta``,
    ``decision`` and ``pseudo_p_decision`` follow from these fields, each by
    its one rule, so a result cannot contradict itself.
    """

    m_value: float
    rho_used: float
    n: int
    k: int
    critical_values: dict[float, float]
    pseudo_p: float | None = None

    @property
    def theta(self) -> float:
        """The aggregation ratio k / n."""
        return self.k / self.n

    @property
    def decision(self) -> dict[float, bool]:
        """``decision[alpha]`` is True iff ``m_value > critical_values[alpha]``."""
        return {a: bool(self.m_value > c) for a, c in self.critical_values.items()}

    @property
    def pseudo_p_decision(self) -> dict[float, bool] | None:
        """``pseudo_p_decision[alpha]`` is True iff ``pseudo_p < alpha``; None without a null."""
        if self.pseudo_p is None:
            return None
        return {a: bool(self.pseudo_p < a) for a in self.critical_values}

    def rejects(self, alpha: float) -> bool:
        """The test's verdict at ``alpha``: the pseudo-p decision when a
        simulated null was supplied, otherwise the critical-value decision."""
        verdicts = self.decision if self.pseudo_p is None else self.pseudo_p_decision
        if alpha not in verdicts:
            raise InvalidAlphaError(f"no decision recorded at alpha={alpha}")
        return verdicts[alpha]

    def significance_stars(self) -> str:
        """Publication convention: *** / ** / * for rejection at 0.01 / 0.05 /
        0.1, by the same verdict as :meth:`rejects`."""
        for alpha, stars in zip(ALPHA_GRID, ("***", "**", "*")):
            if self.rejects(alpha):
                return stars
        return ""

    def to_dict(self) -> dict:
        pp_decision = self.pseudo_p_decision
        return {
            "toolkit_version": _toolkit_version,
            "m_value": self.m_value,
            "theta": self.theta,
            "rho_used": self.rho_used,
            "n": self.n,
            "k": self.k,
            "critical_values": {str(a): v for a, v in self.critical_values.items()},
            "decision": {str(a): v for a, v in self.decision.items()},
            "pseudo_p": self.pseudo_p,
            "pseudo_p_decision": None if pp_decision is None else {str(a): v for a, v in pp_decision.items()},
            "params": dict(DEFAULT_PARAMS),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _null_values(null) -> np.ndarray | None:
    if null is None:
        return None
    values = np.asarray(getattr(null, "values", null), dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise DegenerateInputError("null contains non-finite values")
    return values


def _first_safe_k(results: list[SmaupResult], alpha: float) -> int | None:
    """Walk results in descending k; the level before the first rejection."""
    previous: int | None = None
    for result in results:
        if result.rejects(alpha):
            return previous
        previous = result.k
    return previous


def smaup_test(
    y: AreaVariable,
    w: SpatialWeights,
    k: int,
    alpha: float = 0.05,
    null=None,
    rho: float | None = None,
) -> SmaupResult:
    """Test whether aggregating ``y`` into k regions distorts its distribution.

    The variable's autocorrelation is estimated by maximum likelihood unless
    ``rho`` overrides it; theta is k/n. The result carries critical values
    and reject/not-reject decisions at all tabulated levels. When ``null``
    (a simulated null vector or NullDistribution) is given, an empirical
    pseudo-p and the matching decisions are attached as well.

    Parameters
    ----------
    y : AreaVariable
        The disaggregated variable.
    w : SpatialWeights
        Contiguity structure that y lives on.
    k : int
        Number of regions the areas would be aggregated into, in [1, n].
    alpha : float
        Headline significance level; must be one of the tabulated levels.
    null : NullDistribution or array, optional
        Simulated null statistic values for pseudo-p computation. A
        NullDistribution simulated for another area count is rejected with
        ShapeMismatchError.
    rho : float, optional
        Skip estimation and use this autocorrelation value; |rho| < 1.
    """
    if not _is_integer(k) or not 1 <= k <= w.n:
        raise InvalidKError(f"k must be an integer in [1, {w.n}], got {k!r}")
    return scan_k(y, w, alpha, k, k, null, rho)[0]


def scan_k(
    y: AreaVariable,
    w: SpatialWeights,
    alpha: float = 0.05,
    k_min: int = 1,
    k_max: int | None = None,
    null=None,
    rho: float | None = None,
) -> list[SmaupResult]:
    """Test every aggregation level from k_max down to k_min.

    Results are ordered by descending k. Neither rho nor the critical values
    depend on k, so rho is estimated and the table read once, and M is
    evaluated over all levels as one vector.
    """
    k_max = w.n if k_max is None else k_max
    if not (_is_integer(k_min) and _is_integer(k_max) and 1 <= k_min <= k_max <= w.n):
        raise InvalidKError(f"need integers 1 <= k_min <= k_max <= {w.n}, got [{k_min!r}, {k_max!r}]")
    _check_alpha(alpha)
    null_n = getattr(null, "n", None)
    if null_n is not None and null_n != w.n:
        raise ShapeMismatchError(f"null was simulated for N={null_n}, but weights has n={w.n}")
    nv = _null_values(null)
    rho_used = _check_rho(float(rho)) if rho is not None else estimate_rho(w, y)
    null_rho = getattr(null, "rho", None)
    if null_rho is not None:
        null_cell, cell = (RHO_GRID[_rho_row(r)] for r in (null_rho, rho_used))
        if null_cell != cell:
            warnings.warn(
                f"null was simulated at rho={null_rho:g} (table cell {null_cell:g}), but the "
                f"variable's rho is {rho_used:.4g} (cell {cell:g}); the pseudo-p prices M "
                f"against a null for another rho",
                stacklevel=2,
            )
    crit = {a: critical_value(w.n, rho_used, a) for a in ALPHA_GRID}
    ks = range(k_max, k_min - 1, -1)
    ms = m_statistic(rho_used, np.asarray(ks, dtype=np.float64) / w.n)
    return [
        SmaupResult(float(m), rho_used, w.n, k, dict(crit), None if nv is None else _pseudo_p(nv, m))
        for k, m in zip(ks, ms)
    ]


def min_safe_k(
    y: AreaVariable,
    w: SpatialWeights,
    alpha: float = 0.05,
    k_min: int = 1,
    k_max: int | None = None,
    null=None,
    rho: float | None = None,
) -> int | None:
    """Smallest aggregation level in [k_min, k_max] the test deems safe.

    Scans k descending from k_max and stops at the first rejection; the
    previous (larger) k is the answer — e.g. if the first rejection happens
    at k = 135 the minimum safe level is 136. Returns k_min when no level
    rejects, and None when every level rejects (no safe k in range).

    The rejection rule is the critical-value comparison, or the pseudo-p
    comparison when a simulated null vector is supplied.
    """
    return _first_safe_k(scan_k(y, w, alpha, k_min, k_max, null, rho), alpha)
