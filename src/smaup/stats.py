"""Classical statistics used across the toolkit.

The relative change in the mean (RCM) and in the variance (RCV) between an
original and an aggregated variable, Welch's two-sample t-test, the
(mean-centered) Levene test for equality of variances, and the empirical
pseudo-p of a statistic against a simulated null vector.

Each effect quantity is written once, and the effects harness uses it too:
the sample mean, the sample variance (divisor n - 1) and the relative change
|before - after| / |before|, RCM on means and RCV on sample variances. The
|mean| divisor keeps RCM meaningful on near-zero-mean simulated fields. The
public ``rcm`` and ``rcv`` give a pair the harness's row, bit for bit.

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

The Monte Carlo acceptance filter needs only Levene's verdict on each
aggregation. It takes the field's terms once, and per aggregation only the
mean and squared deviations of the region means' scores; it reads their
least and greatest score only when the field's scores are all equal, the one
case in which every score of both groups can be equal. It decides p < alpha
from the F that ``levene_test`` computes, by the one formula both share, and
builds no outcome: the verdict and errors are ``levene_test``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSampleError,
    InsufficientDataError,
    UndefinedRatioError,
)

__all__ = [
    "TestOutcome",
    "rcm",
    "rcv",
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


def _mean(x: np.ndarray):
    """Sample mean along the last axis."""
    return np.add.reduce(x, -1) / x.shape[-1]


def _mean_and_ss(x: np.ndarray):
    """Mean along the last axis and the sum of squared deviations from it.

    ``vecdot`` takes each row's sum as ``row @ row`` does (BLAS ddot), so a
    row of an array gets the bits of a call on that row alone; ``einsum``
    and ``(dev * dev).sum(-1)`` sum in another order.
    """
    mean = _mean(x)
    dev = x - mean[..., None]
    return mean, np.vecdot(dev, dev)


def _variance(n, ss):
    """Sample variance (divisor n - 1) of n values with squared deviations ``ss``."""
    return ss / (n - 1)


def _relative_change(before, after, quantity: str):
    """|before - after| / |before|, for one pair or for arrays of pairs."""
    if _anywhere(before == 0.0):
        raise UndefinedRatioError(
            f"relative change in {quantity} is undefined for a zero original {quantity}"
        )
    return abs(before - after) / abs(before)


def _too_short(least: int) -> InsufficientDataError:
    return InsufficientDataError(
        f"both samples need at least {least} observation{'s' if least > 1 else ''}"
    )


def _sample(x, least: int = 2) -> np.ndarray:
    """``x`` as a float vector of at least ``least`` values."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < least:
        raise _too_short(least)
    return arr


def _finite_samples(a, b, least: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The input gate of the public two-sample functions: two float vectors
    of at least ``least`` values each, every value finite."""
    a, b = _sample(a, least), _sample(b, least)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DegenerateSampleError("samples must be finite")
    return a, b


def rcm(original, aggregated) -> float:
    """Relative change in the mean: |mean_o - mean_ag| / |mean_o|.

    Either sample may hold one value (an aggregate of one region). A zero
    original mean raises UndefinedRatioError.
    """
    a, b = _finite_samples(original, aggregated, least=1)
    return float(_relative_change(_mean(a), _mean(b), "mean"))


def rcv(original, aggregated) -> float:
    """Relative change in the sample variance: |var_o - var_ag| / var_o.

    A zero original variance raises UndefinedRatioError.
    """
    a, b = _finite_samples(original, aggregated)
    var_o, var_ag = (_variance(x.size, _mean_and_ss(x)[1]) for x in (a, b))
    return float(_relative_change(var_o, var_ag, "variance"))


def _welch_terms(x: np.ndarray):
    """One sample's share of Welch's test, along the last axis: size, mean, squared deviations."""
    return (x.shape[-1], *_mean_and_ss(x))


def _welch(na, mean_a, ss_a, nb, mean_b, ss_b) -> TestOutcome:
    import scipy.special

    if _anywhere((ss_a == 0.0) & (ss_b == 0.0)):
        raise DegenerateSampleError("both samples have zero variance")
    # squared standard errors of the two means, and their shares of the total
    se2_a = _variance(na, ss_a) / na
    se2_b = _variance(nb, ss_b) / nb
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
    a, b = _finite_samples(a, b)
    return _welch(*_welch_terms(a), *_welch_terms(b))


_IDENTICAL_SCORES = "all deviation scores are identical in both groups"


def _levene_terms(x: np.ndarray):
    """One sample's share of Levene's test, along the last axis: size, mean,
    squared deviations, min and max of the scores |x - mean|."""
    z = np.abs(x - _mean(x)[..., None])
    return (z.shape[-1], *_mean_and_ss(z), np.minimum.reduce(z, -1), np.maximum.reduce(z, -1))


def _levene_f(na, za_bar, ss_a, nb, zb_bar, ss_b):
    """Levene's F from two samples' terms, as ``(dfd * between, within, dfd)``:
    F is the quotient of the first two, on (1, dfd) degrees of freedom."""
    z_bar = (na * za_bar + nb * zb_bar) / (na + nb)
    # d * d, not d ** 2: a scalar's ** 2 calls libm pow, which can round
    # otherwise than the product an array's ** 2 takes
    da, db = za_bar - z_bar, zb_bar - z_bar
    between = na * (da * da) + nb * (db * db)
    dfd = na + nb - 2
    return dfd * between, ss_a + ss_b, dfd


def _levene(na, za_bar, ss_a, lo_a, hi_a, nb, zb_bar, ss_b, lo_b, hi_b) -> TestOutcome:
    import scipy.special

    if _anywhere((lo_a == hi_a) & (hi_a == lo_b) & (lo_b == hi_b)):
        raise DegenerateSampleError(_IDENTICAL_SCORES)
    scaled, within, dfd = _levene_f(na, za_bar, ss_a, nb, zb_bar, ss_b)
    # where no score varies within either group F is infinite: set it so
    # rather than divide by zero
    flat = within == 0.0
    if _anywhere(flat):
        scaled, within = np.where(flat, np.inf, scaled), np.where(flat, 1.0, within)
    stat = scaled / within
    return _outcome(stat, scipy.special.fdtrc(1.0, dfd, stat))


def _levene_rejects(field, x: np.ndarray, alpha: float) -> bool:
    """``_levene(*field, *_levene_terms(x)).rejects(alpha)`` for a float vector
    ``x`` against a sample's terms ``field``, with the same errors, computed
    without building the outcome: the acceptance filter's verdict.

    The degeneracy rule needs ``x``'s least and greatest score only when the
    field's own scores are all equal, the one case in which it can hold.
    """
    import scipy.special

    na, za_bar, ss_a, lo_a, hi_a = field
    nb = x.shape[-1]
    if nb < 2:
        raise _too_short(2)
    z = np.abs(x - _mean(x))
    zb_bar, ss_b = _mean_and_ss(z)
    if lo_a == hi_a and hi_a == np.minimum.reduce(z) == np.maximum.reduce(z):
        raise DegenerateSampleError(_IDENTICAL_SCORES)
    scaled, within, dfd = _levene_f(na, za_bar, ss_a, nb, zb_bar, ss_b)
    # F is infinite where no score varies within either group, as in _levene
    stat = scaled / within if within != 0.0 else np.inf
    return scipy.special.fdtrc(1.0, dfd, stat) < alpha


def levene_test(a, b) -> TestOutcome:
    """Levene's test for equality of variances of two samples.

    The scores are absolute deviations from the group mean: the classic,
    mean-centred test of Levene (1960), not the median-centred Brown-Forsythe
    variant that is ``scipy.stats.levene``'s default. The one-way F statistic
    on those scores has (1, n_a + n_b - 2) degrees of freedom. When every
    group's scores are constant but the groups differ, F is infinite and p is 0.
    """
    a, b = _finite_samples(a, b)
    return _levene(*_levene_terms(a), *_levene_terms(b))


def pseudo_p(null_values, m: float) -> float:
    """Fraction of simulated null statistics strictly greater than ``m``."""
    arr = np.asarray(null_values, dtype=np.float64)
    if arr.size == 0:
        raise InsufficientDataError("empty null distribution")
    return float(np.count_nonzero(arr > m)) / arr.size
