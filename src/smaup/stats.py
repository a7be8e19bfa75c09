"""Classical statistics used across the toolkit.

Descriptive moments, relative change in mean/variance between an original and
an aggregated variable, Welch's two-sample t-test, the (mean-centered) Levene
test for equality of variances, and the empirical pseudo-p of a statistic
against a simulated null vector.

The two-sample tests are written in closed form (Welch 1947; Levene 1960)
with p-values from the ``scipy.special`` distribution functions, because the
Monte Carlo harnesses call them millions of times and the ``scipy.stats``
wrappers spend most of each call on argument handling. ``scipy.stats.levene``
and ``scipy.stats.ttest_ind(equal_var=False)`` remain the oracles the tests
compare against. This module never imports ``scipy.stats``, and it loads
``scipy.special`` only when a test first runs, which keeps scipy off the
``import smaup`` path. The private kernels behind the two public tests also
take arrays: the per-sample terms are taken along the last axis, and the
terms of a sample may be arrays of rows, so one call scores many pairs and
gives each pair's statistic and p-value bit for bit as a call on that pair.

Conventions: variances are sample variances (divisor n-1) everywhere. The
relative-change-in-mean ratio divides by the signed original mean exactly as
defined; a warning is emitted when that mean is negative, since the ratio is
then negative and usually not what the caller wants (the experiment harness
divides by |mean| instead and flags the deviation in its metadata).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSampleError,
    InsufficientDataError,
    UndefinedRatioError,
)

__all__ = [
    "TestOutcome",
    "descriptives",
    "rcm",
    "rcv",
    "mean_over_repeats",
    "welch_t_test",
    "levene_test",
    "pseudo_p",
]

@dataclass(frozen=True)
class TestOutcome:
    """Statistic and two-sided p-value of a two-sample test.

    The private kernels return arrays of them, one per pair, when they are
    given arrays of terms; ``rejects`` then decides pair by pair.
    """

    statistic: float
    p_value: float

    def rejects(self, alpha: float) -> bool:
        return self.p_value < alpha


def _outcome(statistic, p_value) -> TestOutcome:
    if isinstance(p_value, np.ndarray):
        return TestOutcome(statistic, np.clip(p_value, 0.0, 1.0))
    return TestOutcome(statistic=float(statistic), p_value=float(min(max(p_value, 0.0), 1.0)))


def _anywhere(mask) -> bool:
    """Whether a comparison of terms holds for one pair, or for any pair of an array."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def _mean_and_ss(x: np.ndarray):
    """Mean along the last axis and the sum of squared deviations from it.

    ``vecdot`` takes each row's sum as ``row @ row`` does (BLAS ddot), so a
    row of an array gets the bits of a call on that row alone; ``einsum``
    and ``(dev * dev).sum(-1)`` sum in another order.
    """
    mean = np.add.reduce(x, -1) / x.shape[-1]
    dev = x - mean[..., None]
    return mean, np.vecdot(dev, dev)


def descriptives(x) -> tuple[float, float]:
    """Arithmetic mean and sample variance (divisor n-1) of a vector."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < 2:
        raise InsufficientDataError(
            f"need at least 2 observations for a variance, got {arr.size}"
        )
    return float(arr.mean()), float(arr.var(ddof=1))


def rcm(original, aggregated) -> float:
    """Relative change in the mean: |mean_o - mean_ag| / mean_o.

    The divisor is the signed original mean. A zero mean is an error; a
    negative mean triggers a warning because the ratio flips sign.
    """
    mu_o = float(np.mean(original))
    mu_ag = float(np.mean(aggregated))
    if mu_o == 0.0:
        raise UndefinedRatioError("relative change in mean is undefined for a zero original mean")
    if mu_o < 0.0:
        warnings.warn(
            "original mean is negative; the signed-divisor relative change is negative "
            "(consider dividing by |mean| for near-zero-mean fields)",
            stacklevel=2,
        )
    return abs(mu_o - mu_ag) / mu_o


def rcv(original, aggregated) -> float:
    """Relative change in the variance: |var_o - var_ag| / var_o."""
    _, var_o = descriptives(original)
    _, var_ag = descriptives(aggregated)
    if var_o == 0.0:
        raise UndefinedRatioError("relative change in variance is undefined for zero original variance")
    return abs(var_o - var_ag) / var_o


def mean_over_repeats(values) -> float:
    """Mean of per-repeat metric values (the repeat-averaged RCM or RCV)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise InsufficientDataError("cannot average zero repeats")
    return float(arr.mean())


def _sample(x) -> np.ndarray:
    """``x`` as a float vector; a two-sample test needs at least 2 values."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < 2:
        raise InsufficientDataError("both samples need at least 2 observations")
    return arr


def _welch_terms(x: np.ndarray):
    """One sample's share of Welch's test, along the last axis: size, mean, squared deviations."""
    if not np.all(np.isfinite(x)):
        raise DegenerateSampleError("samples must be finite")
    return (x.shape[-1], *_mean_and_ss(x))


def _welch(na, mean_a, ss_a, nb, mean_b, ss_b) -> TestOutcome:
    import scipy.special

    if _anywhere((ss_a == 0.0) & (ss_b == 0.0)):
        raise DegenerateSampleError("both samples have zero variance")
    # squared standard errors of the two means, and their shares of the total
    se2_a = ss_a / (na - 1) / na
    se2_b = ss_b / (nb - 1) / nb
    se2 = se2_a + se2_b
    fa, fb = se2_a / se2, se2_b / se2
    df = 1.0 / (fa * fa / (na - 1) + fb * fb / (nb - 1))
    t = (mean_a - mean_b) / np.sqrt(se2)
    return _outcome(t, 2.0 * scipy.special.stdtr(df, -abs(t)))


def welch_t_test(a, b) -> TestOutcome:
    """Welch's two-sample t-test (unequal variances), two-sided p.

    Degrees of freedom follow Welch-Satterthwaite. Used to compare the mean
    of a disaggregated variable with the mean of an aggregated one, whose
    lengths and variances differ.
    """
    a, b = _sample(a), _sample(b)
    return _welch(*_welch_terms(a), *_welch_terms(b))


def _levene_terms(x: np.ndarray):
    """One sample's share of Levene's test, along the last axis: size, mean,
    squared deviations, min and max of the scores |x - mean|."""
    z = np.abs(x - (np.add.reduce(x, -1) / x.shape[-1])[..., None])
    return (z.shape[-1], *_mean_and_ss(z), np.minimum.reduce(z, -1), np.maximum.reduce(z, -1))


def _levene(na, za_bar, ss_a, lo_a, hi_a, nb, zb_bar, ss_b, lo_b, hi_b) -> TestOutcome:
    import scipy.special

    if _anywhere((lo_a == hi_a) & (hi_a == lo_b) & (lo_b == hi_b)):
        raise DegenerateSampleError("all deviation scores are identical in both groups")
    z_bar = (na * za_bar + nb * zb_bar) / (na + nb)
    # d * d, not d ** 2: a scalar's ** 2 calls libm pow, which can round
    # otherwise than the product an array's ** 2 takes
    da, db = za_bar - z_bar, zb_bar - z_bar
    between = na * (da * da) + nb * (db * db)
    within = ss_a + ss_b
    dfd = na + nb - 2
    scaled = dfd * between
    # where no score varies within either group F is infinite: set it so
    # rather than divide by zero
    flat = within == 0.0
    if _anywhere(flat):
        scaled, within = np.where(flat, np.inf, scaled), np.where(flat, 1.0, within)
    stat = scaled / within
    return _outcome(stat, scipy.special.fdtrc(1.0, dfd, stat))


def levene_test(a, b) -> TestOutcome:
    """Levene's test for equality of variances of two samples.

    The scores are absolute deviations from the group mean: the classic,
    mean-centred test of Levene (1960), not the median-centred Brown-Forsythe
    variant that is ``scipy.stats.levene``'s default. The one-way F statistic
    on those scores has (1, n_a + n_b - 2) degrees of freedom. When every
    group's scores are constant but the groups differ, F is infinite and p is 0.
    """
    a, b = _sample(a), _sample(b)
    return _levene(*_levene_terms(a), *_levene_terms(b))


def pseudo_p(null_values, m: float) -> float:
    """Fraction of simulated null statistics strictly greater than ``m``."""
    arr = np.asarray(null_values, dtype=np.float64)
    if arr.size == 0:
        raise InsufficientDataError("empty null distribution")
    return float(np.count_nonzero(arr > m)) / arr.size
