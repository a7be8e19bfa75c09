"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. The
expensive Monte Carlo artifacts are produced once per session and shared;
criterion 10 reruns them with a different worker count and demands
byte-identical reports.
"""

import numpy as np
import pytest
import scipy.stats
from mpmath import mp, mpf

import smaup
from smaup import (
    EffectsConfig,
    SarSpec,
    build_lattice_rook,
    critical_value,
    effects_experiment,
    export_critical_values_csv,
    generate_null,
    generate_sar,
    generate_with_target_rho,
    l_of_theta,
    m_statistic,
    power_experiment,
    pseudo_p,
    random_regions,
    rank_permute,
    size_experiment,
    tau_of_theta,
)
from smaup.critical_values import ALPHA_GRID, N_GRID, RHO_GRID, _TABLE_DATA

mp.dps = 50

MASTER_SEED = 20240901


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def quantile_interval(values, q: float, level: float = 0.95):
    """Distribution-free interval of the q-quantile of the sampled population:
    the order statistics at 1-based ranks lo and hi, where lo is the
    (1 - level) / 2 quantile of B ~ Binomial(len(values), q) and hi is its
    (1 + level) / 2 quantile plus 1, so that P(lo <= B < hi) >= level.
    Returns (lo, hi, value at lo, value at hi)."""
    n = len(values)
    lo = int(scipy.stats.binom.ppf((1 - level) / 2, n, q))
    hi = int(scipy.stats.binom.ppf((1 + level) / 2, n, q)) + 1
    ordered = np.sort(values)
    return lo, hi, float(ordered[lo - 1]), float(ordered[hi - 1])


# ---------------------------------------------------------------------------
# Shared expensive artifacts
# ---------------------------------------------------------------------------


DESK_EFFECTS_CONFIG = EffectsConfig(
    k_lists={100: (12, 53, 90)},
    rho_values=(-0.9, 0.0, 0.9),
    instances=10,
    r=30,
    master_seed=MASTER_SEED,
)


@pytest.fixture(scope="session")
def effects_run():
    return effects_experiment(DESK_EFFECTS_CONFIG, workers=2)


@pytest.fixture(scope="session")
def power_run():
    return power_experiment([100], [0.0], instances=100, alpha=0.05,
                            master_seed=MASTER_SEED, workers=2)


@pytest.fixture(scope="session")
def size_run():
    return size_experiment([100], [0.0], instances=100, alpha=0.05,
                           master_seed=MASTER_SEED, workers=2)


@pytest.fixture(scope="session")
def null_run():
    return generate_null(100, 0.0, replicates=200, master_seed=MASTER_SEED, workers=2)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_critical_value_table_fidelity():
    text = export_critical_values_csv()
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:] if ln]
    exported = {}
    for rho_s, n_s, alpha_s, value_s in rows:
        exported[(float(rho_s), int(n_s), float(alpha_s))] = float(value_s)
    entries_ok = len(exported) == 162 and all(
        exported[(rho, n, alpha)] == _TABLE_DATA[rho][alpha][N_GRID.index(n)]
        for rho in RHO_GRID for n in N_GRID for alpha in ALPHA_GRID
    )
    spots_ok = (
        critical_value(100, 0.0, 0.05) == 0.15746
        and critical_value(25, -0.9, 0.01) == 0.83702
        and critical_value(1000, 0.007, 0.05) == 0.05234
    )
    ok = report(1, entries_ok and spots_ok,
                f"export reproduces {len(exported)}/162 entries exactly; "
                f"spot checks {'match' if spots_ok else 'MISMATCH'}")
    assert ok


def test_criterion_02_statistic_matches_extended_precision_oracle():
    def oracle(rho, theta):
        b, m = mpf("-2.188"), mpf("7.031")
        p, a = mpf("0.516"), mpf("1.287")
        b0, b1 = mpf("5.319"), mpf("-5.532")
        rho, theta = mpf(repr(rho)), mpf(repr(theta))
        big_l = 1 / (1 + mp.e ** (b + m * theta))
        return big_l / (1 + p * theta ** a * mp.e ** ((b0 + b1 * theta) * rho))

    worst = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
            gap = abs(m_statistic(rho, theta) - float(oracle(rho, theta)))
            worst = max(worst, gap)
    ok = report(2, worst <= 1e-12,
                f"25-point grid vs 50-digit oracle, worst |gap| = {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_03_off_grid_lookup_snaps_like_published_examples():
    value = critical_value(1000, 0.007, 0.05)
    ok = report(3, value == 0.05234,
                f"(N=1000, rho=0.007, alpha=0.05) -> {value} (snaps to N=900, rho=0.0)")
    assert ok


def test_criterion_04_mean_effect_replication_at_desk_scale(effects_run):
    worst = max(cell.t_rejection_proportion for cell in effects_run.cells)
    ok = report(4, worst < 0.02,
                f"Welch-t rejection proportion at alpha=0.05: worst cell {worst:.4f} "
                f"over {len(effects_run.cells)} cells (bound 0.02)")
    assert ok


def test_criterion_05_variance_effect_trend(effects_run):
    fading = effects_run.cell(100, 0.9, 90)
    strong = effects_run.cell(100, -0.9, 12)
    rcv_ok = float(np.mean(fading.rcv_bars)) < float(np.mean(strong.rcv_bars))
    lev_ok = fading.levene_rejection_proportion < strong.levene_rejection_proportion
    ok = report(5, rcv_ok and lev_ok,
                f"RCV-bar {np.mean(fading.rcv_bars):.4f} < {np.mean(strong.rcv_bars):.4f}: {rcv_ok}; "
                f"Levene prop {fading.levene_rejection_proportion:.4f} < "
                f"{strong.levene_rejection_proportion:.4f}: {lev_ok}")
    assert ok


def test_criterion_06_power_at_desk_scale(power_run):
    power = power_run.proportion(100, 0.0)
    ok = report(6, power >= 0.90,
                f"power(N=100, rho=0, alpha=0.05, 100 instances) = {power:.3f} (need >= 0.90)")
    assert ok


def test_criterion_07_size_at_desk_scale(size_run):
    size = size_run.proportion(100, 0.0)
    ok = report(7, size <= 0.25,
                f"size(N=100, rho=0, alpha=0.05, 100 instances) = {size:.3f} (need <= 0.25)")
    assert ok


def test_criterion_08_null_distribution_sanity(null_run):
    p90, p95, p99 = (null_run.percentile(q) for q in (90, 95, 99))
    ordered = p90 <= p95 <= p99
    lo, hi = 0.5 * 0.15746, 1.5 * 0.15746
    in_band = lo <= p95 <= hi
    rank_lo, rank_hi, p95_lo, p95_hi = quantile_interval(null_run.values, 0.95)
    ok = report(8, ordered and in_band,
                f"percentiles 90/95/99 = {p90:.4f}/{p95:.4f}/{p99:.4f} "
                f"(ordered: {ordered}); 95th's distribution-free 95% interval "
                f"[{p95_lo:.4f}, {p95_hi:.4f}] (ranks {rank_lo}-{rank_hi} of "
                f"{null_run.replicates}); 95th vs reference band [{lo:.4f}, {hi:.4f}]: "
                f"{in_band} — known gap, documented in README: the reference "
                f"table's values are unreachable under the documented generation "
                f"protocol (measured Levene acceptance suppresses the k range "
                f"that would produce them)")
    assert ordered
    assert ok


def test_criterion_09_property_suites():
    checks = []

    # partition validity, 1000 seeds
    w = build_lattice_rook(10, 10)
    def region_connected(assignment, k):
        for region in range(k):
            members = set(np.flatnonzero(assignment == region).tolist())
            if not members:
                return False
            stack = [next(iter(members))]
            seen = {stack[0]}
            while stack:
                i = stack.pop()
                for j in w.neighbors[i]:
                    if j in members and j not in seen:
                        seen.add(j)
                        stack.append(j)
            if seen != members:
                return False
        return True
    partitions_ok = all(
        region_connected(random_regions(w, 7, seed=s).assignment, 7)
        for s in range(1000)
    )
    checks.append(("partition validity x1000", partitions_ok))

    # rank permutation preserves the value multiset
    rng = np.random.default_rng(MASTER_SEED)
    multiset_ok = True
    for _ in range(50):
        y = smaup.AreaVariable(values=rng.standard_normal(100), weights=w)
        x = smaup.AreaVariable(values=rng.standard_normal(100), weights=w)
        out = rank_permute(y, x)
        multiset_ok &= bool(np.array_equal(np.sort(out.values), np.sort(y.values)))
    checks.append(("rank-permute multiset preservation", multiset_ok))

    # rho-targeted permutation preserves mean and variance exactly
    base = generate_sar(w, SarSpec(rho=0.9, seed=MASTER_SEED))
    targeted = generate_with_target_rho(w, base, target=0.0, window=0.5, seed=MASTER_SEED)
    src, dst = np.sort(base.values), np.sort(targeted.values)
    moments_ok = (
        np.array_equal(src, dst)
        and float(src.sum()) == float(dst.sum())
        and float((src * src).sum()) == float((dst * dst).sum())
    )
    checks.append(("targeted permutation exact moment preservation", moments_ok))

    # pseudo-p is nonincreasing in the statistic
    null = np.sort(np.random.default_rng(1).uniform(size=500))
    ps = [pseudo_p(null, m) for m in np.linspace(-0.2, 1.2, 400)]
    checks.append(("pseudo-p monotonicity", all(b <= a for a, b in zip(ps, ps[1:]))))

    # statistic bounds 0 < M < L(theta)
    rhos = np.linspace(-0.99, 0.99, 67)
    bounds_ok = True
    for theta in np.linspace(0.01, 1.0, 100):
        values = m_statistic(rhos, theta)
        ceiling = l_of_theta(theta)
        bounds_ok &= bool(np.all(values > 0) and np.all(values < ceiling) and ceiling < 1)
    checks.append(("0 < M < L(theta) < 1", bounds_ok))

    # sign of dM/drho equals -sign(tau(theta)), finite differences at 1e-6
    step = 1e-6
    sign_ok = True
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
            fd = (m_statistic(rho + step, theta) - m_statistic(rho - step, theta)) / (2 * step)
            sign_ok &= bool(np.sign(fd) == -np.sign(tau_of_theta(theta)))
    checks.append(("sign(dM/drho) = -sign(tau)", sign_ok))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{name}: {'ok' if flag else 'FAILED'}" for name, flag in checks)
    assert report(9, ok, detail)


def test_criterion_10_worker_count_determinism(effects_run, power_run, size_run, null_run):
    effects_again = effects_experiment(DESK_EFFECTS_CONFIG, workers=1)
    power_again = power_experiment([100], [0.0], instances=100, alpha=0.05,
                                   master_seed=MASTER_SEED, workers=1)
    size_again = size_experiment([100], [0.0], instances=100, alpha=0.05,
                                 master_seed=MASTER_SEED, workers=1)
    null_again = generate_null(100, 0.0, replicates=200, master_seed=MASTER_SEED, workers=1)
    pairs = [
        ("effects", effects_run.to_json() == effects_again.to_json()),
        ("power", power_run.to_json() == power_again.to_json()),
        ("size", size_run.to_json() == size_again.to_json()),
        ("null", null_run.to_json() == null_again.to_json()),
    ]
    ok = all(flag for _, flag in pairs)
    detail = "; ".join(f"{name} byte-identical across worker counts: {flag}"
                       for name, flag in pairs)
    assert report(10, ok, detail)
