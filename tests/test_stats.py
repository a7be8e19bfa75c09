"""Tests for the sample moments, relative changes, and the two-sample tests."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import smaup
from smaup import (
    DegenerateSampleError,
    InsufficientDataError,
    UndefinedRatioError,
    levene_test,
    pseudo_p,
    rcm,
    rcv,
    welch_t_test,
)
from smaup.sar import area_variable_to_csv
from smaup.stats import (
    _levene,
    _levene_rejects,
    _levene_terms,
    _mean,
    _mean_and_ss,
    _sample,
    _variance,
    _welch,
    _welch_terms,
)


def two_pass_moments_oracle(x):
    """Extended-precision two-pass mean/variance."""
    xs = [float(v) for v in x]
    n = len(xs)
    mean = math.fsum(xs) / n
    var = math.fsum((v - mean) ** 2 for v in xs) / (n - 1)
    return mean, var


def permutation_t_pvalue(a, b, n_perm=5000, seed=0):
    """Oracle: two-sided permutation test on the Welch statistic."""
    rng = np.random.default_rng(seed)
    pooled = np.concatenate([a, b])
    observed = abs(scipy.stats.ttest_ind(a, b, equal_var=False).statistic)
    exceed = 0
    for _ in range(n_perm):
        perm = rng.permutation(pooled)
        stat = scipy.stats.ttest_ind(perm[: len(a)], perm[len(a):], equal_var=False).statistic
        if abs(stat) >= observed:
            exceed += 1
    return (exceed + 1) / (n_perm + 1)


def moments(x):
    """Sample mean and sample variance, as RCM and RCV take them."""
    arr = np.asarray(x, dtype=np.float64)
    mean, ss = _mean_and_ss(arr)
    return float(mean), float(_variance(arr.size, ss))


class TestDescriptives:
    def test_constant(self):
        assert moments([1, 1, 1]) == (1.0, 0.0)

    def test_two_points(self):
        assert moments([0, 2]) == (1.0, 2.0)

    def test_against_extended_precision_oracle(self):
        x = np.random.default_rng(0).standard_normal(1000)
        mean, var = moments(x)
        o_mean, o_var = two_pass_moments_oracle(x)
        assert mean == pytest.approx(o_mean, abs=1e-13)
        assert var == pytest.approx(o_var, rel=1e-12)
        assert abs(mean) < 0.1
        assert 0.85 < var < 1.15

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            rcv([1.0], [1.0, 2.0])


class TestRelativeChanges:
    def test_rcm_zero_when_identical(self):
        assert rcm([1.0, 3.0], [1.0, 3.0]) == 0.0

    def test_rcm_halved_mean(self):
        assert rcm([2.0, 2.0], [1.0, 1.0]) == 0.5

    def test_rcm_small_shift(self):
        assert rcm([10.0, 10.0], [10.3, 10.3]) == pytest.approx(0.03)

    def test_rcm_zero_mean_errors(self):
        with pytest.raises(UndefinedRatioError):
            rcm([-1.0, 1.0], [0.5, 0.5])

    def test_rcm_negative_mean_divides_by_its_size(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rcm([-2.0, -2.0], [-1.0, -1.0]) == 0.5

    def test_rcm_of_one_region(self):
        assert rcm([1.0, 3.0], [4.0]) == 1.0

    def test_rcv_zero_when_identical(self):
        x = [1.0, 2.0, 5.0]
        assert rcv(x, x) == 0.0

    def test_rcv_quarter(self):
        assert rcv([0.0, 2.0, 4.0], [1.0, 2.0, 3.0]) == pytest.approx(0.75)

    def test_rcv_absolute_value(self):
        assert rcv([0.0, 1.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)

    def test_rcv_zero_variance_errors(self):
        with pytest.raises(UndefinedRatioError):
            rcv([1.0, 1.0], [1.0, 2.0])

    def test_nonnegative_iff_moments_match(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.standard_normal(40) + 5.0
            b = rng.standard_normal(25) + 5.0
            assert rcm(a, b) >= 0.0
            assert rcv(a, b) >= 0.0


class TestMeanOverRepeats:
    """The effects harness averages each instance's repeats with the sample mean."""

    def test_constant_repeats(self):
        assert _mean(np.full(30, 0.1)) == pytest.approx(0.1)

    def test_two_values(self):
        assert _mean(np.array([0.0, 1.0])) == 0.5

    def test_is_sum_over_count(self):
        values = np.random.default_rng(5).uniform(size=30)
        assert _mean(values) == pytest.approx(float(values.sum()) / 30)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("which", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("public", [rcm, rcv, welch_t_test, levene_test])
def test_non_finite_sample_raises(public, which, bad):
    pair = [[1.0, 2.0, 4.0], [0.5, 3.0, 2.5]]
    pair[which][1] = bad
    with pytest.raises(DegenerateSampleError, match="finite"):
        public(*pair)


def test_rcm_of_an_empty_sample_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in (([], [1.0]), ([1.0], [])):
            with pytest.raises(InsufficientDataError):
                rcm(*pair)


class TestWelch:
    def test_identical_samples(self):
        out = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out.statistic == 0.0
        assert out.p_value == 1.0

    def test_size_under_null(self):
        rng = np.random.default_rng(6)
        rejections = 0
        for _ in range(1000):
            a = rng.standard_normal(50)
            b = rng.standard_normal(50)
            rejections += welch_t_test(a, b).rejects(0.05)
        assert 0.03 <= rejections / 1000 <= 0.08

    def test_separated_means_detected(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(50)
        b = rng.standard_normal(50) + 5.0
        out = welch_t_test(a, b)
        assert out.p_value < 1e-6
        # permutation oracle on the same pair: no permuted statistic comes close
        assert permutation_t_pvalue(a, b, n_perm=5000) < 1e-3

    def test_agrees_with_permutation_oracle_midrange(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(40)
        b = rng.standard_normal(40) + 0.4
        welch_p = welch_t_test(a, b).p_value
        perm_p = permutation_t_pvalue(a, b)
        assert welch_p == pytest.approx(perm_p, abs=0.02)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(30)
        b = rng.standard_normal(45) + 1.0
        ab = welch_t_test(a, b)
        ba = welch_t_test(b, a)
        assert ab.p_value == pytest.approx(ba.p_value)
        assert ab.statistic == pytest.approx(-ba.statistic)

    def test_both_variances_zero(self):
        with pytest.raises(DegenerateSampleError):
            welch_t_test([1.0, 1.0], [2.0, 2.0])


class TestLevene:
    def test_identical_samples(self):
        out = levene_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out.statistic == pytest.approx(0.0)
        assert out.p_value == pytest.approx(1.0)

    def test_worked_example_by_hand(self):
        # independent arithmetic for the classic mean-centered statistic
        a = [1.0, 2.0, 3.0, 4.0, 10.0]
        b = [2.0, 4.0, 6.0, 8.0]
        za = [abs(v - 4.0) for v in a]       # [3, 2, 1, 0, 6]
        zb = [abs(v - 5.0) for v in b]       # [3, 1, 1, 3]
        za_bar, zb_bar = sum(za) / 5, sum(zb) / 4
        grand = sum(za + zb) / 9
        ss_between = 5 * (za_bar - grand) ** 2 + 4 * (zb_bar - grand) ** 2
        ss_within = sum((v - za_bar) ** 2 for v in za) + sum((v - zb_bar) ** 2 for v in zb)
        expected = (9 - 2) / (2 - 1) * ss_between / ss_within
        expected_p = 1.0 - scipy.stats.f.cdf(expected, 1, 7)

        out = levene_test(a, b)
        assert out.statistic == pytest.approx(expected, rel=1e-12)
        assert out.p_value == pytest.approx(expected_p, rel=1e-12)

    def test_size_under_null(self):
        rng = np.random.default_rng(10)
        rejections = 0
        for _ in range(1000):
            a = rng.standard_normal(100)
            b = rng.standard_normal(100)
            rejections += levene_test(a, b).rejects(0.05)
        assert 0.03 <= rejections / 1000 <= 0.08

    def test_detects_variance_ratio_sixteen(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(100)
        b = rng.standard_normal(100) * 4.0
        assert levene_test(a, b).p_value < 1e-4

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal(60)
        b = rng.standard_normal(80) * 2.0
        assert levene_test(a, b).p_value == pytest.approx(levene_test(b, a).p_value)

    def test_degenerate_scores(self):
        with pytest.raises(DegenerateSampleError):
            levene_test([1.0, 1.0], [5.0, 5.0])


class TestLeveneInfiniteF:
    def test_constant_scores_that_differ_give_infinite_f(self):
        # scores are [1, 1] and [2, 2]: nothing varies within a group
        a, b = [0.0, 2.0], [0.0, 4.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = levene_test(a, b)
        assert out.statistic == math.inf
        assert out.p_value == 0.0
        assert all(out.rejects(alpha) for alpha in (0.01, 0.05, 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = scipy.stats.levene(a, b, center="mean")
        assert (ref.statistic, ref.pvalue) == (out.statistic, out.p_value)


@st.composite
def samples(draw, kind):
    """One float sample of 2-200 values at a drawn location and scale."""
    n = draw(st.integers(2, 200))
    loc = draw(st.sampled_from([0.0, -3.5, 1e3]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        return np.full(n, loc + scale)
    if kind == "tied":
        return loc + scale * rng.integers(0, 3, n).astype(np.float64)
    return loc + scale * rng.standard_normal(n)


@st.composite
def sample_pairs(draw):
    """Two samples of mixed kinds and scales; at most one is constant."""
    kind_a = draw(st.sampled_from(["normal", "tied", "constant"]))
    kind_b = draw(st.sampled_from(["normal", "tied"] if kind_a == "constant"
                                  else ["normal", "tied", "constant"]))
    pair = [draw(samples(kind_a)), draw(samples(kind_b))]
    if draw(st.booleans()):
        pair.reverse()
    return pair


def assert_matches_scipy(out, ref):
    assert out.statistic == pytest.approx(float(ref.statistic), rel=1e-10, abs=0.0)
    assert out.p_value == pytest.approx(min(max(float(ref.pvalue), 0.0), 1.0), rel=1e-10, abs=0.0)


class TestClosedFormAgainstScipy:
    """The closed-form kernels reproduce the scipy.stats reference tests."""

    @settings(max_examples=300, deadline=None)
    @given(sample_pairs())
    def test_levene(self, pair):
        a, b = pair
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = levene_test(a, b)
        except DegenerateSampleError:
            scores = [np.abs(x - x.mean()) for x in pair]
            assert np.ptp(np.concatenate(scores)) == 0.0
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = scipy.stats.levene(a, b, center="mean")
        assert_matches_scipy(out, ref)

    @settings(max_examples=300, deadline=None)
    @given(sample_pairs())
    def test_welch(self, pair):
        a, b = pair
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = welch_t_test(a, b)
        except DegenerateSampleError:
            # tied draws can make the second sample constant too
            assert a.var() == 0.0 and b.var() == 0.0
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert_matches_scipy(out, ref)


def outcome_or_error(test, *args):
    """A test's (statistic, p), or the type and message it raised, as text."""
    try:
        out = test(*args)
    except (DegenerateSampleError, InsufficientDataError) as exc:
        return repr((type(exc).__name__, str(exc)))
    return repr((out.statistic, out.p_value))


def verdict_or_error(decide, *args):
    """Whether a test rejects, or the type and message it raised, as text."""
    try:
        rejects = decide(*args)
    except (DegenerateSampleError, InsufficientDataError) as exc:
        return repr((type(exc).__name__, str(exc)))
    return repr(bool(rejects))


class TestPerSampleTerms:
    """The Monte Carlo kernel takes one field's terms once and combines them
    with every aggregation's; that gives what the public tests give."""

    DEGENERATE = [
        np.full(5, 2.0),                 # zero variance, constant scores
        np.array([1.0, 3.0]),            # constant scores, nonzero variance
        np.array([0.0, 4.0]),            # constant scores of another size
        np.array([7.0]),                 # too short
    ]

    @staticmethod
    def assert_reuse_matches_public(field, others):
        welch_field = _welch_terms(_sample(field))
        levene_field = _levene_terms(_sample(field))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for b in others:
                assert outcome_or_error(
                    lambda b: _welch(*welch_field, *_welch_terms(_sample(b))), b
                ) == outcome_or_error(welch_t_test, field, b)
                assert outcome_or_error(
                    lambda b: _levene(*levene_field, *_levene_terms(_sample(b))), b
                ) == outcome_or_error(levene_test, field, b)
                # the acceptance filter's verdict, at its level and at the pair's
                # own p-value, where < and <= part
                try:
                    p = levene_test(field, b).p_value
                except (DegenerateSampleError, InsufficientDataError):
                    p = 0.05
                for alpha in (0.05, p):
                    assert verdict_or_error(
                        _levene_rejects, levene_field, np.asarray(b, dtype=np.float64), alpha
                    ) == verdict_or_error(lambda b: levene_test(field, b).rejects(alpha), b)

    @settings(max_examples=100, deadline=None)
    @given(samples("normal"), st.lists(sample_pairs(), min_size=1, max_size=4))
    def test_field_terms_reused_across_aggregations(self, field, pairs):
        others = [x for pair in pairs for x in pair]
        self.assert_reuse_matches_public(field, others + self.DEGENERATE)

    @pytest.mark.parametrize("field", DEGENERATE[:3])
    def test_degenerate_field(self, field):
        self.assert_reuse_matches_public(field, self.DEGENERATE)


@st.composite
def field_and_rows(draw):
    """A field and 1-8 rows of k <= 100 values, none degenerate against it. A
    flat draw makes the field's scores constant ([0, 2]) and gives row 0
    constant scores of another size, so that row has no within-group spread
    at all; it draws no tied row, which could repeat the field's scores."""
    flat = draw(st.booleans())
    k = 2 * draw(st.integers(1, 50)) if flat else draw(st.integers(2, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loc = draw(st.sampled_from([0.0, -3.5, 1e3]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    rows = loc + scale * rng.standard_normal((draw(st.integers(1, 8)), k))
    if flat:
        rows[0] = np.tile([0.0, 4.0], k // 2)
        return np.array([0.0, 2.0]), rows, flat
    if draw(st.booleans()):
        rows[-1] = loc + scale * rng.integers(0, 3, k)  # ties
    return loc + scale * rng.standard_normal(draw(st.integers(2, 200))), rows, flat


class TestArrayTerms:
    """Given arrays of rows, the private kernels score every row in one call,
    and each row's figures are those of a call on that row alone."""

    @settings(max_examples=200, deadline=None)
    @given(field_and_rows())
    def test_rows_equal_scalar_calls(self, drawn):
        field, rows, flat = drawn
        for terms, test in ((_welch_terms, _welch), (_levene_terms, _levene)):
            row_terms = terms(rows)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batched = test(*terms(field), *row_terms)
            assert batched.statistic.shape == batched.p_value.shape == (len(rows),)
            for i, row in enumerate(rows):
                one = terms(row)
                assert [np.asarray(t)[i] if np.ndim(t) else t for t in row_terms] == list(one)
                out = test(*terms(field), *one)
                assert (batched.statistic[i], batched.p_value[i]) == (out.statistic, out.p_value)
        if flat:
            # scores [1, 1] against [2, ..., 2]: F is infinite, as levene_test gives it
            assert (batched.statistic[0], batched.p_value[0]) == (math.inf, 0.0)
            assert levene_test(field, rows[0]).statistic == math.inf


@pytest.mark.parametrize("case", ["import-smaup", "import-cli", "weights-command", "test-command"])
def test_scipy_loads_only_where_called(tmp_path, case):
    # scipy is imported by the functions that call it: importing the package,
    # or a command that never solves, estimates or tests, loads none of it,
    # and `smaup test` (rho estimation, no two-sample test) not scipy.special.
    # The process pool is imported only by a multi-worker run: none of these
    # loads concurrent.futures, except that scipy's own imports of
    # numpy.testing load the package, without its process pool, for `test`
    squares = [[[c, r], [c + 1, r], [c + 1, r + 1], [c, r + 1], [c, r]]
               for r in range(3) for c in range(3)]
    geojson = tmp_path / "grid.geojson"
    geojson.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {}, "geometry": {"type": "Polygon", "coordinates": [ring]}}
        for ring in squares]}))
    w = smaup.build_lattice_rook(10, 10)
    weights = tmp_path / "w.json"
    weights.write_text(w.to_json())
    values = tmp_path / "y.csv"
    values.write_text(area_variable_to_csv(smaup.generate_sar(w, smaup.SarSpec(0.5, seed=1))))
    statements = {
        "import-smaup": "import smaup",
        "import-cli": "import smaup.cli",
        "weights-command": "from smaup.cli import main; "
                           f"main(['weights', '--geojson', {str(geojson)!r}, '--out', {str(tmp_path / 'out.json')!r}])",
        "test-command": "from smaup.cli import main; "
                        f"main(['test', '--values', {str(values)!r}, '--weights', {str(weights)!r}, '--k', '20'])",
    }
    unloaded = (("scipy.special", "concurrent.futures.process") if case == "test-command"
                else ("scipy", "concurrent.futures"))
    code = (f"import sys\n{statements[case]}\n"
            f"print(sorted(m for m in sys.modules if any((m + '.').startswith(u + '.') for u in {unloaded!r})))")
    src = str(Path(smaup.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


class TestPseudoP:
    def test_worked_example(self):
        assert pseudo_p([0.1, 0.2, 0.3, 0.4], 0.25) == 0.5

    def test_above_all(self):
        assert pseudo_p([0.1, 0.2, 0.3, 0.4], 0.9) == 0.0

    def test_below_all(self):
        assert pseudo_p([0.1, 0.2, 0.3, 0.4], 0.05) == 1.0

    def test_nonincreasing_in_m(self):
        null = np.sort(np.random.default_rng(14).uniform(size=200))
        grid = np.linspace(-0.5, 1.5, 301)
        values = [pseudo_p(null, m) for m in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_right_continuity_at_null_points(self):
        null = [0.2, 0.4, 0.6]
        for point in null:
            at = pseudo_p(null, point)
            just_right = pseudo_p(null, point + 1e-12)
            assert at == just_right

    def test_empty_null(self):
        with pytest.raises(InsufficientDataError):
            pseudo_p([], 0.5)
